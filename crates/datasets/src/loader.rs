//! On-disk dataset loading.
//!
//! Users who have real imagery (e.g. PASCAL VOC frames converted to PPM and
//! masks converted to PGM) can evaluate on it by pointing the loader at a
//! directory laid out as:
//!
//! ```text
//! dataset/
//!   images/<name>.ppm
//!   masks/<name>.pgm      # 0 = background, 255 (or any non-zero) = foreground,
//!                         # value 128 = void
//! ```

use crate::sample::LabeledImage;
use imaging::{io, ImagingError, LabelMap, Result, VOID_LABEL};
use std::path::{Path, PathBuf};

/// Grayscale mask value interpreted as "void" when loading PGM masks.
pub(crate) const VOID_MASK_VALUE: u8 = 128;

/// Loads every `<stem>.ppm` / `<stem>.pgm` pair under `root/images` and
/// `root/masks`, sorted by stem.  Pairs with mismatched dimensions produce an
/// error; images without a mask are skipped.
pub fn load_directory(root: &Path) -> Result<Vec<LabeledImage>> {
    let images_dir = root.join("images");
    let masks_dir = root.join("masks");
    let mut stems: Vec<(String, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(&images_dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some("ppm") {
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                stems.push((stem.to_string(), path.clone()));
            }
        }
    }
    stems.sort();
    let mut samples = Vec::new();
    for (stem, image_path) in stems {
        let mask_path = masks_dir.join(format!("{stem}.pgm"));
        if !mask_path.exists() {
            continue;
        }
        let image = io::load_ppm(&image_path)?;
        let mask_gray = io::load_pgm(&mask_path)?;
        if image.dimensions() != mask_gray.dimensions() {
            return Err(ImagingError::ShapeMismatch {
                left: image.dimensions(),
                right: mask_gray.dimensions(),
            });
        }
        let mask: LabelMap = mask_gray.map(|p| match p.value() {
            0 => 0u32,
            VOID_MASK_VALUE => VOID_LABEL,
            _ => 1u32,
        });
        samples.push(LabeledImage::new(stem, image, mask));
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imaging::{GrayImage, Luma, Rgb, RgbImage};

    fn write_sample(root: &Path, stem: &str, w: usize, h: usize) {
        let image = RgbImage::from_fn(w, h, |x, _| Rgb::new((x * 20) as u8, 10, 200));
        let mask = GrayImage::from_fn(w, h, |x, y| {
            Luma(if x == 0 && y == 0 {
                VOID_MASK_VALUE
            } else if x < w / 2 {
                0
            } else {
                255
            })
        });
        io::save_ppm(&image, root.join("images").join(format!("{stem}.ppm"))).unwrap();
        io::save_pgm(&mask, root.join("masks").join(format!("{stem}.pgm"))).unwrap();
    }

    fn temp_root(name: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("datasets-loader-{name}"));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("images")).unwrap();
        std::fs::create_dir_all(root.join("masks")).unwrap();
        root
    }

    #[test]
    fn loads_image_mask_pairs_sorted_by_stem() {
        let root = temp_root("pairs");
        write_sample(&root, "b-frame", 8, 6);
        write_sample(&root, "a-frame", 8, 6);
        let samples = load_directory(&root).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].id, "a-frame");
        assert_eq!(samples[1].id, "b-frame");
        assert_eq!(samples[0].image.dimensions(), (8, 6));
        // Void pixel and binary labels decoded as expected.
        assert_eq!(samples[0].ground_truth.get(0, 0), VOID_LABEL);
        assert_eq!(samples[0].ground_truth.get(1, 0), 0);
        assert_eq!(samples[0].ground_truth.get(7, 5), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn images_without_masks_are_skipped() {
        let root = temp_root("skip");
        write_sample(&root, "kept", 4, 4);
        let orphan = RgbImage::new(4, 4, Rgb::BLACK);
        io::save_ppm(&orphan, root.join("images").join("orphan.ppm")).unwrap();
        let samples = load_directory(&root).unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].id, "kept");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn mismatched_dimensions_are_an_error() {
        let root = temp_root("mismatch");
        let image = RgbImage::new(4, 4, Rgb::BLACK);
        let mask = GrayImage::new(5, 4, Luma(0));
        io::save_ppm(&image, root.join("images").join("x.ppm")).unwrap();
        io::save_pgm(&mask, root.join("masks").join("x.pgm")).unwrap();
        assert!(load_directory(&root).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_directory_is_an_io_error() {
        let missing = std::env::temp_dir().join("datasets-loader-definitely-missing");
        assert!(load_directory(&missing).is_err());
    }
}
