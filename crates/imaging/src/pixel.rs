//! Pixel types: RGB triples and single-channel luma values.

/// An RGB pixel with channel type `T`.
///
/// The workspace uses `Rgb<u8>` for stored images and `Rgb<f64>` for the
/// normalised `[0, 1]` representation consumed by the segmentation algorithms.
///
/// The layout is exactly `[T; 3]`, which is what lets a slice of `Rgb<u8>`
/// be viewed as its interleaved `r, g, b` bytes ([`Rgb::slice_as_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(transparent)]
pub struct Rgb<T>(pub [T; 3]);

/// A single-channel (grayscale) pixel with channel type `T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Luma<T>(pub T);

impl<T: Copy> Rgb<T> {
    /// Creates a pixel from individual channel values.
    pub fn new(r: T, g: T, b: T) -> Self {
        Rgb([r, g, b])
    }

    /// Red channel.
    pub fn r(&self) -> T {
        self.0[0]
    }

    /// Green channel.
    pub fn g(&self) -> T {
        self.0[1]
    }

    /// Blue channel.
    pub fn b(&self) -> T {
        self.0[2]
    }

    /// Applies `f` to every channel.
    pub(crate) fn map<U: Copy, F: Fn(T) -> U>(&self, f: F) -> Rgb<U> {
        Rgb([f(self.0[0]), f(self.0[1]), f(self.0[2])])
    }
}

impl Rgb<u8> {
    /// Converts to a floating-point pixel with channels in `[0, 1]`.
    pub fn to_f64(self) -> Rgb<f64> {
        self.map(|c| c as f64 / 255.0)
    }

    /// Black, the void colour of the synthetic scenes.
    pub const BLACK: Rgb<u8> = Rgb([0, 0, 0]);
    /// White.
    pub(crate) const WHITE: Rgb<u8> = Rgb([255, 255, 255]);

    /// Views a pixel slice as its interleaved bytes `r0, g0, b0, r1, …`
    /// (`3 * pixels.len()` of them), without copying.
    pub fn slice_as_bytes(pixels: &[Rgb<u8>]) -> &[u8] {
        // SAFETY: `Rgb<u8>` is `#[repr(transparent)]` over `[u8; 3]`, so it
        // has size 3, align 1 and no padding (checked at compile time
        // below): `pixels` is exactly `3 * len` initialised bytes (its own
        // size in memory, so the product neither overflows nor exceeds
        // `isize::MAX`), any pointer is aligned for `u8`, and the byte view
        // borrows `pixels` for the same lifetime.
        unsafe { std::slice::from_raw_parts(pixels.as_ptr().cast::<u8>(), pixels.len() * 3) }
    }

    /// Mutable twin of [`Rgb::slice_as_bytes`]: writing byte `3i + c` sets
    /// channel `c` of pixel `i`.
    pub fn slice_as_bytes_mut(pixels: &mut [Rgb<u8>]) -> &mut [u8] {
        // SAFETY: as in `slice_as_bytes`; in addition every byte value is a
        // valid channel, so any write through the view leaves valid pixels,
        // and the view holds the only (mutable) borrow of `pixels`.
        unsafe {
            std::slice::from_raw_parts_mut(pixels.as_mut_ptr().cast::<u8>(), pixels.len() * 3)
        }
    }
}

// The byte views above rely on this layout.
const _: () = assert!(
    std::mem::size_of::<Rgb<u8>>() == 3 && std::mem::align_of::<Rgb<u8>>() == 1,
    "Rgb<u8> must be three unpadded bytes"
);

/// Views a label slice as its bytes, four per label in native byte order
/// (`4 * labels.len()` of them), without copying.  On a little-endian
/// target these are exactly the labels' little-endian wire bytes.
pub fn labels_as_bytes(labels: &[u32]) -> &[u8] {
    // SAFETY: a `u32` is four bytes with no padding and every bit pattern
    // valid (checked at compile time below), so `labels` is exactly
    // `4 * len` initialised bytes (its own size in memory, so the product
    // neither overflows nor exceeds `isize::MAX`); a `u32` pointer is
    // aligned for `u8`, and the view borrows `labels` for the same lifetime.
    unsafe { std::slice::from_raw_parts(labels.as_ptr().cast::<u8>(), labels.len() * 4) }
}

/// Mutable twin of [`labels_as_bytes`]: writing bytes `4i..4i + 4` sets
/// label `i` from those bytes in native byte order.
pub fn labels_as_bytes_mut(labels: &mut [u32]) -> &mut [u8] {
    // SAFETY: as in `labels_as_bytes`; in addition any four bytes form a
    // valid `u32`, so every write through the view leaves valid labels, and
    // the view holds the only (mutable) borrow of `labels`.
    unsafe { std::slice::from_raw_parts_mut(labels.as_mut_ptr().cast::<u8>(), labels.len() * 4) }
}

// The label byte views rely on this layout.
const _: () = assert!(std::mem::size_of::<u32>() == 4, "u32 must be four bytes");

impl Rgb<f64> {
    /// Squared Euclidean distance to `other`.
    pub fn dist2(self, other: Rgb<f64>) -> f64 {
        let dr = self.r() - other.r();
        let dg = self.g() - other.g();
        let db = self.b() - other.b();
        dr * dr + dg * dg + db * db
    }

    /// Channel-wise addition (used when accumulating cluster means).
    #[allow(clippy::should_implement_trait)] // named like the operator on purpose
    pub fn add(self, other: Rgb<f64>) -> Rgb<f64> {
        Rgb([
            self.r() + other.r(),
            self.g() + other.g(),
            self.b() + other.b(),
        ])
    }

    /// Channel-wise scaling.
    pub fn scale(self, k: f64) -> Rgb<f64> {
        self.map(|c| c * k)
    }
}

impl<T: Copy> Luma<T> {
    /// The underlying intensity value.
    pub fn value(&self) -> T {
        self.0
    }
}

impl<T: Copy> From<[T; 3]> for Rgb<T> {
    fn from(v: [T; 3]) -> Self {
        Rgb(v)
    }
}

impl<T: Copy> From<T> for Luma<T> {
    fn from(v: T) -> Self {
        Luma(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rgb_accessors() {
        let p = Rgb::new(1u8, 2, 3);
        assert_eq!((p.r(), p.g(), p.b()), (1, 2, 3));
        assert_eq!(Rgb::from([4u8, 5, 6]), Rgb::new(4, 5, 6));
    }

    #[test]
    fn u8_to_f64_roundtrip() {
        for v in [0u8, 1, 17, 127, 200, 255] {
            let p = Rgb::new(v, v, v).to_f64();
            assert!(p.r() >= 0.0 && p.r() <= 1.0);
            assert_eq!(p.map(|c| (c * 255.0).round() as u8), Rgb::new(v, v, v));
        }
    }

    #[test]
    fn distances_are_euclidean_squared() {
        let a = Rgb::new(0u8, 0, 0);
        let b = Rgb::new(3u8, 4, 0);
        let af = a.to_f64();
        let bf = b.to_f64();
        let expected = (3.0f64 / 255.0).powi(2) + (4.0f64 / 255.0).powi(2);
        assert!((af.dist2(bf) - expected).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_helpers() {
        let a = Rgb::new(0.1, 0.2, 0.3);
        let b = Rgb::new(0.4, 0.5, 0.6);
        let s = a.add(b);
        assert!((s.r() - 0.5).abs() < 1e-12);
        assert!((s.b() - 0.9).abs() < 1e-12);
        let h = s.scale(0.5);
        assert!((h.g() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn named_colors() {
        assert_eq!(Rgb::BLACK, Rgb::new(0, 0, 0));
        assert_eq!(Rgb::WHITE, Rgb::new(255, 255, 255));
    }

    #[test]
    fn byte_view_of_an_empty_slice_is_empty() {
        assert!(Rgb::slice_as_bytes(&[]).is_empty());
        assert!(Rgb::slice_as_bytes_mut(&mut []).is_empty());
    }

    #[test]
    fn byte_view_interleaves_channels_for_odd_lengths() {
        let pixels = [Rgb::new(1u8, 2, 3), Rgb::new(4, 5, 6), Rgb::new(7, 8, 9)];
        assert_eq!(
            Rgb::slice_as_bytes(&pixels),
            &[1, 2, 3, 4, 5, 6, 7, 8, 9][..]
        );
        assert_eq!(Rgb::slice_as_bytes(&pixels[1..2]), &[4, 5, 6][..]);
    }

    #[test]
    fn byte_view_round_trips_through_its_mutable_twin() {
        let source: Vec<Rgb<u8>> = (0..7u8)
            .map(|i| Rgb::new(i, i.wrapping_mul(37), 255 - i))
            .collect();
        let mut copy = vec![Rgb::BLACK; source.len()];
        Rgb::slice_as_bytes_mut(&mut copy).copy_from_slice(Rgb::slice_as_bytes(&source));
        assert_eq!(copy, source);
        Rgb::slice_as_bytes_mut(&mut copy)[4] = 99;
        assert_eq!(copy[1], Rgb::new(source[1].r(), 99, source[1].b()));
    }

    #[test]
    fn label_byte_views_are_native_order_and_round_trip() {
        let labels = [0x0102_0304u32, u32::MAX, 0];
        let bytes = labels_as_bytes(&labels);
        assert_eq!(bytes.len(), 12);
        assert_eq!(bytes[..4], 0x0102_0304u32.to_ne_bytes());
        assert_eq!(bytes[4..8], [0xFF; 4]);
        let mut copy = [7u32; 3];
        labels_as_bytes_mut(&mut copy).copy_from_slice(bytes);
        assert_eq!(copy, labels);
        labels_as_bytes_mut(&mut copy)[8..].copy_from_slice(&9u32.to_ne_bytes());
        assert_eq!(copy[2], 9);
        assert!(labels_as_bytes(&[]).is_empty());
        assert!(labels_as_bytes_mut(&mut []).is_empty());
    }

    #[test]
    fn map_applies_per_channel() {
        let p = Rgb::new(1u8, 2, 3).map(|c| c as u16 * 10);
        assert_eq!(p, Rgb::new(10u16, 20, 30));
        let l: Luma<u8> = 7u8.into();
        assert_eq!(l.value(), 7);
    }
}
