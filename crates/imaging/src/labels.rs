//! Label-map utilities.
//!
//! Segmentation algorithms in this workspace all emit a [`crate::LabelMap`]
//! (one `u32` per pixel).  This module provides the operations the evaluation
//! pipeline needs on top of that representation: census/statistics,
//! binarisation into foreground/background, relabelling, connected components
//! and palette rendering for figure output.

use crate::image::ImageBuffer;
use crate::pixel::Rgb;
use crate::{LabelMap, RgbImage, VOID_LABEL};
use std::collections::HashMap;

/// Per-label pixel counts, sorted by label value.
pub fn label_census(labels: &LabelMap) -> Vec<(u32, usize)> {
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for &l in labels.pixels() {
        *counts.entry(l).or_insert(0) += 1;
    }
    let mut out: Vec<(u32, usize)> = counts.into_iter().collect();
    out.sort_unstable_by_key(|&(l, _)| l);
    out
}

/// Number of distinct labels present (void pixels excluded).
pub fn distinct_labels(labels: &LabelMap) -> usize {
    label_census(labels)
        .into_iter()
        .filter(|&(l, _)| l != VOID_LABEL)
        .count()
}

/// The most frequent label (void pixels excluded); `None` for an empty map.
pub fn dominant_label(labels: &LabelMap) -> Option<u32> {
    label_census(labels)
        .into_iter()
        .filter(|&(l, _)| l != VOID_LABEL)
        .max_by_key(|&(label, count)| (count, std::cmp::Reverse(label)))
        .map(|(l, _)| l)
}

/// Produces a binary foreground mask: pixels whose label is in `foreground`
/// become 1, all others 0 (void pixels stay void).
pub fn binarize(labels: &LabelMap, foreground: &[u32]) -> LabelMap {
    labels.map(|l| {
        if l == VOID_LABEL {
            VOID_LABEL
        } else if foreground.contains(&l) {
            1
        } else {
            0
        }
    })
}

/// Fraction of non-void pixels carrying label `label`.
pub fn label_fraction(labels: &LabelMap, label: u32) -> f64 {
    let mut hits = 0usize;
    let mut valid = 0usize;
    for &l in labels.pixels() {
        if l == VOID_LABEL {
            continue;
        }
        valid += 1;
        if l == label {
            hits += 1;
        }
    }
    if valid == 0 {
        0.0
    } else {
        hits as f64 / valid as f64
    }
}

/// 4-connected components of equal labels; returns a map of component ids
/// (starting at 0) and the number of components.  Void pixels form their own
/// components.
pub fn connected_components(labels: &LabelMap) -> (LabelMap, usize) {
    let (w, h) = labels.dimensions();
    let mut comp = ImageBuffer::new(w, h, u32::MAX);
    let mut next = 0u32;
    let mut stack = Vec::new();
    for sy in 0..h {
        for sx in 0..w {
            if comp.get(sx, sy) != u32::MAX {
                continue;
            }
            let target = labels.get(sx, sy);
            comp.set(sx, sy, next);
            stack.push((sx, sy));
            while let Some((x, y)) = stack.pop() {
                let neighbours = [
                    (x.wrapping_sub(1), y),
                    (x + 1, y),
                    (x, y.wrapping_sub(1)),
                    (x, y + 1),
                ];
                for (nx, ny) in neighbours {
                    if nx < w
                        && ny < h
                        && comp.get(nx, ny) == u32::MAX
                        && labels.get(nx, ny) == target
                    {
                        comp.set(nx, ny, next);
                        stack.push((nx, ny));
                    }
                }
            }
            next += 1;
        }
    }
    (comp, next as usize)
}

/// A qualitative colour palette used to render label maps for figures.
pub(crate) const PALETTE: [Rgb<u8>; 10] = [
    Rgb([31, 119, 180]),
    Rgb([255, 127, 14]),
    Rgb([44, 160, 44]),
    Rgb([214, 39, 40]),
    Rgb([148, 103, 189]),
    Rgb([140, 86, 75]),
    Rgb([227, 119, 194]),
    Rgb([127, 127, 127]),
    Rgb([188, 189, 34]),
    Rgb([23, 190, 207]),
];

/// Renders a label map as an RGB image using `PALETTE` (void pixels are
/// rendered black).
pub fn render_labels(labels: &LabelMap) -> RgbImage {
    labels.map(|l| {
        if l == VOID_LABEL {
            Rgb::BLACK
        } else {
            PALETTE[(l as usize) % PALETTE.len()]
        }
    })
}

/// Renders a binary mask as a black/white image (void pixels mid-gray).
pub fn render_binary(labels: &LabelMap) -> RgbImage {
    labels.map(|l| match l {
        0 => Rgb::BLACK,
        VOID_LABEL => Rgb::new(128, 128, 128),
        _ => Rgb::WHITE,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quarters() -> LabelMap {
        // 4x4 image, left half label 3, right half label 8, one void pixel.
        let mut m = LabelMap::from_fn(4, 4, |x, _| if x < 2 { 3 } else { 8 });
        m.set(0, 0, VOID_LABEL);
        m
    }

    #[test]
    fn census_counts_and_sorts() {
        let census = label_census(&quarters());
        assert_eq!(census, vec![(3, 7), (8, 8), (VOID_LABEL, 1)]);
        assert_eq!(distinct_labels(&quarters()), 2);
    }

    #[test]
    fn dominant_label_ignores_void() {
        assert_eq!(dominant_label(&quarters()), Some(8));
        let empty = LabelMap::new(0, 0, 0);
        assert_eq!(dominant_label(&empty), None);
        // Tie: smaller label wins deterministically.
        let tie = LabelMap::from_fn(2, 1, |x, _| if x == 0 { 5 } else { 9 });
        assert_eq!(dominant_label(&tie), Some(5));
    }

    #[test]
    fn binarize_marks_the_selected_labels() {
        let bin = binarize(&quarters(), &[8]);
        assert_eq!(bin.get(3, 3), 1);
        assert_eq!(bin.get(1, 3), 0);
        assert_eq!(bin.get(0, 0), VOID_LABEL);
    }

    #[test]
    fn label_fraction_excludes_void() {
        let f = label_fraction(&quarters(), 8);
        assert!((f - 8.0 / 15.0).abs() < 1e-12);
        assert_eq!(label_fraction(&LabelMap::new(2, 2, VOID_LABEL), 1), 0.0);
    }

    #[test]
    fn connected_components_counts_regions() {
        // Two horizontal stripes of the same label separated by another label
        // are distinct components.
        let m = LabelMap::from_fn(5, 3, |_, y| if y == 1 { 1 } else { 0 });
        let (comp, n) = connected_components(&m);
        assert_eq!(n, 3);
        assert_ne!(comp.get(0, 0), comp.get(0, 2));
        assert_eq!(comp.get(0, 0), comp.get(4, 0));
    }

    #[test]
    fn connected_components_single_region() {
        let m = LabelMap::new(6, 6, 4);
        let (comp, n) = connected_components(&m);
        assert_eq!(n, 1);
        assert!(comp.pixels().all(|&c| c == 0));
    }

    #[test]
    fn rendering_uses_palette_and_black_void() {
        let m = quarters();
        let img = render_labels(&m);
        assert_eq!(img.get(0, 0), Rgb::BLACK);
        assert_eq!(img.get(1, 0), PALETTE[3]);
        assert_eq!(img.get(3, 0), PALETTE[8]);
        let bin = binarize(&m, &[8]);
        let bw = render_binary(&bin);
        assert_eq!(bw.get(3, 0), Rgb::WHITE);
        assert_eq!(bw.get(1, 0), Rgb::BLACK);
        assert_eq!(bw.get(0, 0), Rgb::new(128, 128, 128));
    }
}
