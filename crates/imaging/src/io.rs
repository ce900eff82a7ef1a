//! Netpbm (PPM / PGM) encoding and decoding.
//!
//! The workspace stores every rendered figure and every synthetic dataset
//! image as binary PPM (`P6`) or PGM (`P5`); the ASCII variants (`P3`/`P2`)
//! are also read so hand-written fixtures can be used in tests.  Netpbm was
//! chosen over PNG because it needs no compression dependency, and every
//! common image viewer / converter understands it.

use crate::error::{ImagingError, Result};
use crate::pixel::{Luma, Rgb};
use crate::{GrayImage, RgbImage};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Writes an RGB image as binary PPM (`P6`).
pub(crate) fn write_ppm<W: Write>(img: &RgbImage, mut w: W) -> Result<()> {
    write!(w, "P6\n{} {}\n255\n", img.width(), img.height())?;
    let mut buf = Vec::with_capacity(img.len() * 3);
    for p in img.pixels() {
        buf.extend_from_slice(&p.0);
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Writes an RGB image as binary PPM to `path`.
pub fn save_ppm<P: AsRef<Path>>(img: &RgbImage, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_ppm(img, std::io::BufWriter::new(file))
}

/// Writes a grayscale image as binary PGM (`P5`).
pub(crate) fn write_pgm<W: Write>(img: &GrayImage, mut w: W) -> Result<()> {
    write!(w, "P5\n{} {}\n255\n", img.width(), img.height())?;
    let buf: Vec<u8> = img.pixels().map(|p| p.value()).collect();
    w.write_all(&buf)?;
    Ok(())
}

/// Writes a grayscale image as binary PGM to `path`.
pub fn save_pgm<P: AsRef<Path>>(img: &GrayImage, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_pgm(img, std::io::BufWriter::new(file))
}

/// Reads a PPM image (`P6` binary or `P3` ASCII).
pub(crate) fn read_ppm<R: Read>(r: R) -> Result<RgbImage> {
    let mut reader = BufReader::new(r);
    let header = PnmHeader::parse(&mut reader)?;
    match header.magic {
        PnmMagic::P6 => {
            let data = read_binary_samples(&mut reader, header.samples(3)?)?;
            let pixels: Vec<Rgb<u8>> = data
                .chunks_exact(3)
                .map(|c| Rgb::new(c[0], c[1], c[2]))
                .collect();
            RgbImage::from_vec(header.width, header.height, pixels)
        }
        PnmMagic::P3 => {
            let values = read_ascii_values(&mut reader, header.samples(3)?)?;
            let pixels: Vec<Rgb<u8>> = values
                .chunks_exact(3)
                .map(|c| Rgb::new(c[0], c[1], c[2]))
                .collect();
            RgbImage::from_vec(header.width, header.height, pixels)
        }
        _ => Err(ImagingError::Decode(
            "expected a PPM (P3/P6) file, found a PGM header".into(),
        )),
    }
}

/// Reads a PPM image from `path`.
pub fn load_ppm<P: AsRef<Path>>(path: P) -> Result<RgbImage> {
    read_ppm(std::fs::File::open(path)?)
}

/// Reads a PGM image (`P5` binary or `P2` ASCII).
pub(crate) fn read_pgm<R: Read>(r: R) -> Result<GrayImage> {
    let mut reader = BufReader::new(r);
    let header = PnmHeader::parse(&mut reader)?;
    match header.magic {
        PnmMagic::P5 => {
            let data = read_binary_samples(&mut reader, header.samples(1)?)?;
            let pixels: Vec<Luma<u8>> = data.into_iter().map(Luma).collect();
            GrayImage::from_vec(header.width, header.height, pixels)
        }
        PnmMagic::P2 => {
            let values = read_ascii_values(&mut reader, header.samples(1)?)?;
            let pixels: Vec<Luma<u8>> = values.into_iter().map(Luma).collect();
            GrayImage::from_vec(header.width, header.height, pixels)
        }
        _ => Err(ImagingError::Decode(
            "expected a PGM (P2/P5) file, found a PPM header".into(),
        )),
    }
}

/// Reads a PGM image from `path`.
pub fn load_pgm<P: AsRef<Path>>(path: P) -> Result<GrayImage> {
    read_pgm(std::fs::File::open(path)?)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PnmMagic {
    P2,
    P3,
    P5,
    P6,
}

struct PnmHeader {
    magic: PnmMagic,
    width: usize,
    height: usize,
}

impl PnmHeader {
    /// Parses the netpbm header (magic, width, height, maxval), skipping
    /// whitespace and `#` comments, and leaves the reader positioned at the
    /// first byte of pixel data.
    fn parse<R: BufRead>(reader: &mut R) -> Result<Self> {
        let magic_token = next_token(reader)?;
        let magic = match magic_token.as_str() {
            "P2" => PnmMagic::P2,
            "P3" => PnmMagic::P3,
            "P5" => PnmMagic::P5,
            "P6" => PnmMagic::P6,
            other => {
                return Err(ImagingError::Decode(format!(
                    "unsupported netpbm magic '{other}'"
                )))
            }
        };
        let width: usize = parse_token(&next_token(reader)?)?;
        let height: usize = parse_token(&next_token(reader)?)?;
        let maxval: u32 = parse_token(&next_token(reader)?)?;
        if maxval == 0 || maxval > 255 {
            return Err(ImagingError::Decode(format!(
                "unsupported maxval {maxval}; only 8-bit netpbm is supported"
            )));
        }
        Ok(Self {
            magic,
            width,
            height,
        })
    }

    /// The number of samples the header declares, `channels` per pixel, or
    /// [`ImagingError::TooLarge`] if that count overflows.
    fn samples(&self, channels: usize) -> Result<usize> {
        self.width
            .checked_mul(self.height)
            .and_then(|pixels| pixels.checked_mul(channels))
            .ok_or(ImagingError::TooLarge {
                width: self.width,
                height: self.height,
            })
    }
}

/// Reads exactly `count` bytes of binary pixel data.  The buffer grows with
/// the bytes that arrive, so a header cannot make the reader reserve the
/// size it claims before the data is there.
fn read_binary_samples<R: Read>(reader: &mut R, count: usize) -> Result<Vec<u8>> {
    let mut data = Vec::new();
    reader.take(count as u64).read_to_end(&mut data)?;
    if data.len() != count {
        return Err(ImagingError::Decode(format!(
            "truncated pixel data: expected {count} bytes, found {}",
            data.len()
        )));
    }
    Ok(data)
}

fn parse_token<T: std::str::FromStr>(token: &str) -> Result<T> {
    token
        .parse()
        .map_err(|_| ImagingError::Decode(format!("invalid numeric token '{token}'")))
}

/// Reads the next whitespace-delimited token, skipping `#` comments.  Consumes
/// exactly one trailing whitespace byte after the token (the netpbm rule that
/// separates the header from binary pixel data).
fn next_token<R: BufRead>(reader: &mut R) -> Result<String> {
    let mut token = String::new();
    let mut in_comment = false;
    loop {
        let mut byte = [0u8; 1];
        let n = reader.read(&mut byte)?;
        if n == 0 {
            if token.is_empty() {
                return Err(ImagingError::Decode("unexpected end of header".into()));
            }
            return Ok(token);
        }
        let c = byte[0] as char;
        if in_comment {
            if c == '\n' {
                in_comment = false;
            }
            continue;
        }
        if c == '#' {
            in_comment = true;
            continue;
        }
        if c.is_whitespace() {
            if token.is_empty() {
                continue;
            }
            return Ok(token);
        }
        token.push(c);
    }
}

fn read_ascii_values<R: BufRead>(reader: &mut R, count: usize) -> Result<Vec<u8>> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    let mut values = Vec::new();
    for token in text.split_whitespace() {
        if token.starts_with('#') {
            continue;
        }
        let v: u32 = parse_token(token)?;
        if v > 255 {
            return Err(ImagingError::Decode(format!(
                "ASCII sample {v} exceeds maxval 255"
            )));
        }
        values.push(v as u8);
        if values.len() == count {
            break;
        }
    }
    if values.len() != count {
        return Err(ImagingError::Decode(format!(
            "expected {count} samples, found {}",
            values.len()
        )));
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_rgb() -> RgbImage {
        RgbImage::from_fn(4, 3, |x, y| Rgb::new((x * 60) as u8, (y * 80) as u8, 200))
    }

    fn test_gray() -> GrayImage {
        GrayImage::from_fn(5, 2, |x, y| Luma((x * 50 + y * 10) as u8))
    }

    #[test]
    fn ppm_roundtrip_in_memory() {
        let img = test_rgb();
        let mut buf = Vec::new();
        write_ppm(&img, &mut buf).unwrap();
        assert!(buf.starts_with(b"P6\n4 3\n255\n"));
        let back = read_ppm(&buf[..]).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn pgm_roundtrip_in_memory() {
        let img = test_gray();
        let mut buf = Vec::new();
        write_pgm(&img, &mut buf).unwrap();
        let back = read_pgm(&buf[..]).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn ascii_ppm_is_parsed() {
        let text = "P3\n# a comment\n2 2\n255\n255 0 0  0 255 0\n0 0 255  10 20 30\n";
        let img = read_ppm(text.as_bytes()).unwrap();
        assert_eq!(img.get(0, 0), Rgb::new(255, 0, 0));
        assert_eq!(img.get(1, 0), Rgb::new(0, 255, 0));
        assert_eq!(img.get(0, 1), Rgb::new(0, 0, 255));
        assert_eq!(img.get(1, 1), Rgb::new(10, 20, 30));
    }

    #[test]
    fn ascii_pgm_is_parsed() {
        let text = "P2\n3 1\n255\n0 128 255\n";
        let img = read_pgm(text.as_bytes()).unwrap();
        assert_eq!(img.get(0, 0).value(), 0);
        assert_eq!(img.get(1, 0).value(), 128);
        assert_eq!(img.get(2, 0).value(), 255);
    }

    #[test]
    fn comments_in_header_are_skipped() {
        let text = "P2\n# width and height follow\n2 # inline\n1\n255\n7 9\n";
        let img = read_pgm(text.as_bytes()).unwrap();
        assert_eq!(img.dimensions(), (2, 1));
        assert_eq!(img.get(1, 0).value(), 9);
    }

    #[test]
    fn wrong_magic_is_rejected() {
        assert!(matches!(
            read_ppm("P5\n1 1\n255\n\0".as_bytes()).unwrap_err(),
            ImagingError::Decode(_)
        ));
        assert!(matches!(
            read_pgm("P6\n1 1\n255\n\0\0\0".as_bytes()).unwrap_err(),
            ImagingError::Decode(_)
        ));
        assert!(matches!(
            read_ppm("P9\n1 1\n255\n".as_bytes()).unwrap_err(),
            ImagingError::Decode(_)
        ));
    }

    #[test]
    fn truncated_data_is_an_error() {
        let text = "P2\n3 1\n255\n1 2\n";
        assert!(read_pgm(text.as_bytes()).is_err());
        let mut buf = Vec::new();
        write_ppm(&test_rgb(), &mut buf).unwrap();
        buf.truncate(buf.len() - 4);
        assert!(read_ppm(&buf[..]).is_err());
    }

    #[test]
    fn overflowing_dimensions_are_a_typed_error() {
        let huge = usize::MAX;
        for magic in ["P2", "P3", "P5", "P6"] {
            let text = format!("{magic}\n{huge} 2\n255\n1 2 3\n");
            let err = if magic == "P3" || magic == "P6" {
                read_ppm(text.as_bytes()).unwrap_err()
            } else {
                read_pgm(text.as_bytes()).unwrap_err()
            };
            assert!(
                matches!(err, ImagingError::TooLarge { width, height: 2 } if width == huge),
                "{magic}: {err:?}"
            );
        }
        // The pixel count fits in a `usize`, three samples per pixel do not.
        let side = u32::MAX;
        let text = format!("P6\n{side} {side}\n255\n\0\0\0");
        assert!(matches!(
            read_ppm(text.as_bytes()).unwrap_err(),
            ImagingError::TooLarge { .. }
        ));
    }

    #[test]
    fn a_header_larger_than_its_data_is_a_truncation_error() {
        for (magic, read) in [
            (
                "P6",
                (|b: &[u8]| read_ppm(b).map(|_| ())) as fn(&[u8]) -> Result<()>,
            ),
            ("P5", |b: &[u8]| read_pgm(b).map(|_| ())),
        ] {
            let mut bytes = format!("{magic}\n40000 40000\n255\n").into_bytes();
            bytes.extend_from_slice(&[1, 2, 3]);
            match read(&bytes) {
                Err(ImagingError::Decode(message)) => {
                    assert!(message.contains("found 3"), "{magic}: {message}")
                }
                other => panic!("{magic}: expected a truncation error, got {other:?}"),
            }
        }
    }

    #[test]
    fn unsupported_maxval_is_rejected() {
        let text = "P2\n1 1\n65535\n1000\n";
        assert!(read_pgm(text.as_bytes()).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("imaging-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let ppm_path = dir.join("test.ppm");
        let pgm_path = dir.join("test.pgm");
        save_ppm(&test_rgb(), &ppm_path).unwrap();
        save_pgm(&test_gray(), &pgm_path).unwrap();
        assert_eq!(load_ppm(&ppm_path).unwrap(), test_rgb());
        assert_eq!(load_pgm(&pgm_path).unwrap(), test_gray());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
