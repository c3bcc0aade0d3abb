//! Length-prefixed stereo-frame wire format for the networked ingest edge.
//!
//! A message carries one stereo frame (left + right `f32` planes) plus the
//! routing metadata the server needs: session key, per-session sequence
//! number and plane dimensions.  The layout is fixed little-endian:
//!
//! ```text
//! offset  size  field
//!      0     4  length prefix (bytes after this field)
//!      4     4  magic "ASVF"
//!      8     2  format version (currently 1)
//!     10     2  key length in bytes
//!     12     8  sequence number (per session, starting at 0)
//!     20     4  plane width in pixels
//!     24     4  plane height in pixels
//!     28     4  CRC-32 (IEEE) of every byte after the length prefix,
//!               with this field read as zero
//!     32     k  session key (UTF-8)
//!   32+k  4*w*h left plane, f32 little-endian row-major
//!          4*w*h right plane, f32 little-endian row-major
//! ```
//!
//! A second message kind, the session-resume **hello** (magic "ASVH"),
//! shares the same header layout with zero plane dimensions and no payload:
//! it asks the server which sequence number it expects next for the key, so
//! a restarted producer resumes where the session stands instead of being
//! silently deduplicated from 0.  [`validate_message`] distinguishes the
//! two by magic and returns a [`Message`].
//!
//! Design rules, in service of the robustness guarantees the runtime makes:
//!
//! * **No panics on hostile input.**  Every structural violation maps to a
//!   dedicated [`WireFault`] inside [`AsvError::Wire`] — truncated buffers,
//!   oversized length prefixes, bad magic, unsupported versions, checksum
//!   mismatches, invalid UTF-8 keys and inconsistent lengths are all errors,
//!   never indexing faults.
//! * **Allocation-free steady state.**  [`encode_frame_into`] reuses the
//!   caller's buffer, [`validate_message`] borrows from the message, and
//!   [`FrameRef::fill_planes`] writes into planes the server's sink recycles
//!   from the target session, so a warm server decodes frames without
//!   touching the heap (proven by the counting-allocator test in
//!   `tests/zero_alloc.rs`).
//! * **Whole-message integrity.**  The CRC covers the header fields as well
//!   as the key and payload, so a bit flip anywhere after the length prefix
//!   is caught — a flipped length prefix itself is caught by the internal
//!   length consistency check.

use asv::error::WireFault;
use asv::AsvError;
use asv_image::Image;

/// The four magic bytes opening every message (after the length prefix).
pub const MAGIC: [u8; 4] = *b"ASVF";

/// The four magic bytes of a session-resume hello message.
pub const HELLO_MAGIC: [u8; 4] = *b"ASVH";

/// The wire-format version this build encodes and accepts.
pub const VERSION: u16 = 1;

/// Hard cap on a session key in bytes, enforced on encode *and* decode:
/// hostile peers cannot grow server-side per-session state (the sequence
/// gate keys on the session key) with multi-kilobyte keys.
pub const MAX_KEY_BYTES: usize = 1024;

/// Byte length of the fixed header, *including* the length prefix.
pub const HEADER_BYTES: usize = 32;

/// Default upper bound on one message (length prefix excluded): a 4K stereo
/// pair with key leaves ample headroom, while a corrupt length prefix can
/// never talk the server into a multi-gigabyte read.
pub const MAX_MESSAGE_BYTES: usize = 128 * 1024 * 1024;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup table,
/// built at compile time so the runtime carries no dependency.
const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Streaming CRC-32 over multiple slices (state in, state out).
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC of a full message body: everything after the length prefix, with the
/// four checksum bytes at `[28..32)` treated as zero.
fn message_crc(message: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF;
    crc = crc32_update(crc, &message[4..28]);
    crc = crc32_update(crc, &[0, 0, 0, 0]);
    crc = crc32_update(crc, &message[32..]);
    !crc
}

fn read_u16(bytes: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([bytes[at], bytes[at + 1]])
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(raw)
}

/// Total message size (length prefix included) for one frame.
pub fn encoded_len(key: &str, width: usize, height: usize) -> usize {
    HEADER_BYTES + key.len() + 8 * width * height
}

/// Serializes one stereo frame into `out`, replacing its contents.
///
/// The buffer is cleared and refilled, so a caller that reuses the same
/// `Vec` across frames of one stream performs no steady-state allocations
/// (the first frame grows the buffer to its final size).
///
/// # Errors
///
/// [`AsvError::Wire`] with [`WireFault::Length`] when the planes disagree
/// in size, or [`WireFault::Key`] when the key exceeds [`MAX_KEY_BYTES`];
/// encoding performs no I/O and fails on nothing else.
pub fn encode_frame_into(
    out: &mut Vec<u8>,
    key: &str,
    seq: u64,
    left: &Image,
    right: &Image,
) -> Result<(), AsvError> {
    if left.width() != right.width() || left.height() != right.height() {
        return Err(AsvError::wire(
            WireFault::Length,
            format!(
                "left plane {}x{} vs right plane {}x{}",
                left.width(),
                left.height(),
                right.width(),
                right.height()
            ),
        ));
    }
    check_key_len(key.len())?;
    let width = left.width();
    let height = left.height();
    let total = encoded_len(key, width, height);
    out.clear();
    out.reserve(total);
    out.extend_from_slice(&u32::to_le_bytes((total - 4) as u32));
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(width as u32).to_le_bytes());
    out.extend_from_slice(&(height as u32).to_le_bytes());
    out.extend_from_slice(&[0, 0, 0, 0]); // CRC placeholder, patched below.
    out.extend_from_slice(key.as_bytes());
    for &px in left.as_slice() {
        out.extend_from_slice(&px.to_le_bytes());
    }
    for &px in right.as_slice() {
        out.extend_from_slice(&px.to_le_bytes());
    }
    let crc = message_crc(out);
    out[28..32].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

fn check_key_len(len: usize) -> Result<(), AsvError> {
    if len > MAX_KEY_BYTES {
        return Err(AsvError::wire(
            WireFault::Key,
            format!("session key of {len} bytes exceeds the {MAX_KEY_BYTES} byte cap"), // lint: alloc-ok(error path, frame already rejected)
        ));
    }
    Ok(())
}

/// Serializes a session-resume hello for `key` into `out`, replacing its
/// contents.  Same header layout as a frame, magic [`HELLO_MAGIC`], zero
/// plane dimensions, no payload.
///
/// # Errors
///
/// [`AsvError::Wire`] with [`WireFault::Key`] when the key exceeds
/// [`MAX_KEY_BYTES`].
pub fn encode_hello_into(out: &mut Vec<u8>, key: &str) -> Result<(), AsvError> {
    check_key_len(key.len())?;
    let total = HEADER_BYTES + key.len();
    out.clear();
    out.reserve(total);
    out.extend_from_slice(&u32::to_le_bytes((total - 4) as u32));
    out.extend_from_slice(&HELLO_MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes()); // sequence field, unused
    out.extend_from_slice(&0u32.to_le_bytes()); // width
    out.extend_from_slice(&0u32.to_le_bytes()); // height
    out.extend_from_slice(&[0, 0, 0, 0]); // CRC placeholder, patched below.
    out.extend_from_slice(key.as_bytes());
    let crc = message_crc(out);
    out[28..32].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// A validated view into an encoded frame: header fields plus borrowed
/// plane bytes, produced by [`validate_message`] without touching the heap.
#[derive(Debug)]
pub struct FrameRef<'a> {
    /// Session key routing this frame.
    pub key: &'a str,
    /// Per-session sequence number.
    pub seq: u64,
    /// Plane width in pixels.
    pub width: usize,
    /// Plane height in pixels.
    pub height: usize,
    left_bytes: &'a [u8],
    right_bytes: &'a [u8],
}

impl FrameRef<'_> {
    /// Deserializes one little-endian plane into `data`, which the caller
    /// checked holds exactly `width * height` elements.
    fn fill_plane(bytes: &[u8], data: &mut [f32]) {
        for (dst, raw) in data.iter_mut().zip(bytes.chunks_exact(4)) {
            *dst = f32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]);
        }
    }

    /// Deserializes both planes into caller-provided images, which must
    /// already have this frame's dimensions (e.g. recycled from the target
    /// shard's frame pool) — the zero-allocation server path.
    ///
    /// # Errors
    ///
    /// [`AsvError::Wire`] with [`WireFault::Length`] when either image's
    /// dimensions disagree with the header.
    pub fn fill_planes(&self, left: &mut Image, right: &mut Image) -> Result<(), AsvError> {
        for (plane, image) in [(self.left_bytes, &mut *left), (self.right_bytes, right)] {
            if image.width() != self.width || image.height() != self.height {
                return Err(AsvError::wire(
                    WireFault::Length,
                    // lint: alloc-ok(error path, frame already rejected)
                    format!(
                        "provided {}x{} plane for a {}x{} frame",
                        image.width(),
                        image.height(),
                        self.width,
                        self.height
                    ),
                ));
            }
            Self::fill_plane(plane, image.as_mut_slice());
        }
        Ok(())
    }
}

/// One structurally validated wire message.
#[derive(Debug)]
pub enum Message<'a> {
    /// A stereo frame.
    Frame(FrameRef<'a>),
    /// A session-resume hello: the peer asks which sequence number is
    /// expected next for this session key.
    Hello {
        /// Session key being resumed.
        key: &'a str,
    },
}

/// Structurally validates one complete message (length prefix included) and
/// returns a borrowed view of its fields — a frame or a hello, decided by
/// the magic bytes.  Performs every check of the format — length
/// consistency, magic, version, key cap, CRC, key UTF-8 — without
/// allocating.
///
/// # Errors
///
/// [`AsvError::Wire`] carrying the exact [`WireFault`]; see the module
/// documentation for the full list.
pub fn validate_message(bytes: &[u8], max_message_bytes: usize) -> Result<Message<'_>, AsvError> {
    if bytes.len() < 4 {
        return Err(AsvError::wire(
            WireFault::Truncated,
            format!("{} bytes cannot hold the length prefix", bytes.len()), // lint: alloc-ok(error path, frame already rejected)
        ));
    }
    let declared = read_u32(bytes, 0) as usize;
    if declared > max_message_bytes {
        return Err(AsvError::wire(
            WireFault::Oversized,
            format!("length prefix {declared} exceeds the {max_message_bytes} byte limit"), // lint: alloc-ok(error path, frame already rejected)
        ));
    }
    if bytes.len() < 4 + declared {
        return Err(AsvError::wire(
            WireFault::Truncated,
            format!("{} bytes for a declared {}", bytes.len(), 4 + declared), // lint: alloc-ok(error path, frame already rejected)
        ));
    }
    if bytes.len() > 4 + declared {
        return Err(AsvError::wire(
            WireFault::Length,
            // lint: alloc-ok(error path, frame already rejected)
            format!(
                "{} bytes but the prefix declares {}",
                bytes.len(),
                4 + declared
            ),
        ));
    }
    if declared < HEADER_BYTES - 4 {
        return Err(AsvError::wire(
            WireFault::Truncated,
            format!("declared body of {declared} bytes is shorter than the header"), // lint: alloc-ok(error path, frame already rejected)
        ));
    }
    let is_hello = if bytes[4..8] == MAGIC {
        false
    } else if bytes[4..8] == HELLO_MAGIC {
        true
    } else {
        return Err(AsvError::wire(
            WireFault::BadMagic,
            format!("{:02x?} is neither ASVF nor ASVH", &bytes[4..8]), // lint: alloc-ok(error path, frame already rejected)
        ));
    };
    let version = read_u16(bytes, 8);
    if version != VERSION {
        return Err(AsvError::wire(
            WireFault::Version,
            format!("version {version} (this build speaks {VERSION})"), // lint: alloc-ok(error path, frame already rejected)
        ));
    }
    let key_len = read_u16(bytes, 10) as usize;
    check_key_len(key_len)?;
    let seq = read_u64(bytes, 12);
    let width = read_u32(bytes, 20) as usize;
    let height = read_u32(bytes, 24) as usize;
    if is_hello && (width != 0 || height != 0) {
        return Err(AsvError::wire(
            WireFault::Length,
            format!("hello message declares {width}x{height} planes"), // lint: alloc-ok(error path, frame already rejected)
        ));
    }
    let pixels = width
        .checked_mul(height)
        .and_then(|p| p.checked_mul(8))
        .ok_or_else(|| {
            AsvError::wire(
                WireFault::Length,
                format!("plane {width}x{height} overflows"), // lint: alloc-ok(error path, frame already rejected)
            )
        })?;
    let expected = HEADER_BYTES - 4 + key_len + pixels;
    if declared != expected {
        return Err(AsvError::wire(
            WireFault::Length,
            // lint: alloc-ok(error path, frame already rejected)
            format!(
                "prefix declares {declared} bytes but key {key_len} + planes {width}x{height} \
                 need {expected}"
            ),
        ));
    }
    let stored_crc = read_u32(bytes, 28);
    let computed = message_crc(bytes);
    if stored_crc != computed {
        return Err(AsvError::wire(
            WireFault::Crc,
            format!("stored {stored_crc:#010x} vs computed {computed:#010x}"), // lint: alloc-ok(error path, frame already rejected)
        ));
    }
    let key = std::str::from_utf8(&bytes[HEADER_BYTES..HEADER_BYTES + key_len])
        .map_err(|e| AsvError::wire(WireFault::Key, format!("session key is not UTF-8: {e}")))?; // lint: alloc-ok(error path, frame already rejected)
    if is_hello {
        return Ok(Message::Hello { key });
    }
    let planes = &bytes[HEADER_BYTES + key_len..];
    let (left_bytes, right_bytes) = planes.split_at(pixels / 2);
    Ok(Message::Frame(FrameRef {
        key,
        seq,
        width,
        height,
        left_bytes,
        right_bytes,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_matches_the_ieee_reference_vector() {
        // The canonical check value: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(!crc32_update(0xFFFF_FFFF, b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn encoded_layout_is_stable() {
        let left = Image::zeros(2, 1);
        let right = Image::zeros(2, 1);
        let mut out = Vec::new();
        encode_frame_into(&mut out, "cam", 7, &left, &right).unwrap();
        assert_eq!(out.len(), encoded_len("cam", 2, 1));
        assert_eq!(read_u32(&out, 0) as usize, out.len() - 4);
        assert_eq!(&out[4..8], b"ASVF");
        assert_eq!(read_u16(&out, 8), VERSION);
        assert_eq!(read_u16(&out, 10), 3);
        assert_eq!(read_u64(&out, 12), 7);
        assert_eq!(read_u32(&out, 20), 2);
        assert_eq!(read_u32(&out, 24), 1);
        assert_eq!(&out[32..35], b"cam");
    }

    #[test]
    fn mismatched_planes_refuse_to_encode() {
        let left = Image::zeros(2, 2);
        let right = Image::zeros(2, 3);
        let err = encode_frame_into(&mut Vec::new(), "cam", 0, &left, &right).unwrap_err();
        assert!(matches!(
            err,
            AsvError::Wire {
                fault: WireFault::Length,
                ..
            }
        ));
    }
}
