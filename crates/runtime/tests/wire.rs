//! Wire-format fuzz and property tests.
//!
//! Locked properties of `asv_runtime::wire`:
//! * `validate_message` + `fill_planes` of an encoded frame round-trips
//!   byte-identically — key, sequence number and both planes;
//! * every single-byte corruption of a valid message is rejected with a
//!   structured [`AsvError::Wire`], never a panic;
//! * truncation at *every* byte boundary is rejected;
//! * oversized length prefixes and version/magic mismatches map to their
//!   dedicated [`WireFault`] variants.
//!
//! The zero-allocation decode proofs live in `zero_alloc.rs`.

use asv::error::WireFault;
use asv::AsvError;
use asv_image::Image;
use asv_runtime::wire::{self, FrameRef, HEADER_BYTES, MAX_MESSAGE_BYTES};
use proptest::prelude::*;

/// A deterministic non-trivial test plane: every pixel distinct.
fn plane(width: usize, height: usize, salt: f32) -> Image {
    let data = (0..width * height)
        .map(|i| (i as f32).mul_add(0.125, salt))
        .collect();
    Image::from_vec(width, height, data).expect("sized to match")
}

fn encoded(key: &str, seq: u64, width: usize, height: usize) -> Vec<u8> {
    let left = plane(width, height, 0.0);
    let right = plane(width, height, 1000.0);
    let mut out = Vec::new();
    wire::encode_frame_into(&mut out, key, seq, &left, &right).expect("valid frame encodes");
    out
}

/// The server's decode: validate the message, require a frame, and fill
/// planes of the header's size.
fn decode(bytes: &[u8]) -> Result<(FrameRef<'_>, Image, Image), AsvError> {
    match wire::validate_message(bytes, MAX_MESSAGE_BYTES)? {
        wire::Message::Frame(frame) => {
            let mut left = Image::zeros(frame.width, frame.height);
            let mut right = Image::zeros(frame.width, frame.height);
            frame.fill_planes(&mut left, &mut right)?;
            Ok((frame, left, right))
        }
        other => panic!("expected a frame, got {other:?}"),
    }
}

fn wire_fault(error: AsvError) -> WireFault {
    match error {
        AsvError::Wire { fault, .. } => fault,
        other => panic!("expected AsvError::Wire, got {other:?}"),
    }
}

#[test]
fn round_trip_preserves_every_field() {
    let left = plane(13, 7, 0.0);
    let right = plane(13, 7, 500.0);
    let mut bytes = Vec::new();
    wire::encode_frame_into(&mut bytes, "cam-3/front", 42, &left, &right).unwrap();
    let (frame, decoded_left, decoded_right) = decode(&bytes).unwrap();
    assert_eq!(frame.key, "cam-3/front");
    assert_eq!(frame.seq, 42);
    assert_eq!(decoded_left.as_slice(), left.as_slice());
    assert_eq!(decoded_right.as_slice(), right.as_slice());
}

#[test]
fn truncation_at_every_boundary_is_rejected() {
    let bytes = encoded("cam", 5, 6, 4);
    for cut in 0..bytes.len() {
        let fault =
            wire_fault(decode(&bytes[..cut]).expect_err("a truncated message must never validate"));
        assert!(
            matches!(fault, WireFault::Truncated),
            "cut at {cut} produced {fault:?}, expected Truncated"
        );
    }
}

#[test]
fn every_single_byte_corruption_is_rejected() {
    let bytes = encoded("cam", 9, 5, 3);
    for at in 0..bytes.len() {
        let mut mangled = bytes.clone();
        mangled[at] ^= 0x41;
        let error = decode(&mangled)
            .err()
            .unwrap_or_else(|| panic!("flipping byte {at} went undetected"));
        // Any structured wire fault is acceptable — which one depends on
        // the field hit — but it must be a Wire error, not a panic or a
        // silently-decoded frame.
        let _ = wire_fault(error);
    }
}

#[test]
fn oversized_length_prefix_is_rejected_before_reading_further() {
    let mut bytes = encoded("cam", 0, 4, 4);
    let huge = (MAX_MESSAGE_BYTES as u32) + 1;
    bytes[..4].copy_from_slice(&huge.to_le_bytes());
    let fault = wire_fault(wire::validate_message(&bytes, MAX_MESSAGE_BYTES).unwrap_err());
    assert!(matches!(fault, WireFault::Oversized), "got {fault:?}");
}

#[test]
fn version_mismatch_is_rejected() {
    let mut bytes = encoded("cam", 0, 4, 4);
    bytes[8..10].copy_from_slice(&(wire::VERSION + 1).to_le_bytes());
    // Re-stamp the CRC so the version check (which runs first) is what fires.
    restamp_crc(&mut bytes);
    let fault = wire_fault(wire::validate_message(&bytes, MAX_MESSAGE_BYTES).unwrap_err());
    assert!(matches!(fault, WireFault::Version), "got {fault:?}");
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = encoded("cam", 0, 4, 4);
    bytes[4..8].copy_from_slice(b"HTTP");
    restamp_crc(&mut bytes);
    let fault = wire_fault(wire::validate_message(&bytes, MAX_MESSAGE_BYTES).unwrap_err());
    assert!(matches!(fault, WireFault::BadMagic), "got {fault:?}");
}

#[test]
fn payload_corruption_is_caught_by_the_crc() {
    let mut bytes = encoded("cam", 0, 4, 4);
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    let fault = wire_fault(wire::validate_message(&bytes, MAX_MESSAGE_BYTES).unwrap_err());
    assert!(matches!(fault, WireFault::Crc), "got {fault:?}");
}

#[test]
fn hello_round_trips_and_is_not_a_frame() {
    let mut bytes = Vec::new();
    wire::encode_hello_into(&mut bytes, "cam-1/front").unwrap();
    match wire::validate_message(&bytes, MAX_MESSAGE_BYTES).unwrap() {
        wire::Message::Hello { key } => assert_eq!(key, "cam-1/front"),
        other => panic!("expected a hello, got {other:?}"),
    }
    // And hello corruption is caught like frame corruption.
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    assert!(wire::validate_message(&bytes, MAX_MESSAGE_BYTES).is_err());
}

#[test]
fn oversized_session_key_is_rejected_at_both_ends() {
    let key = "k".repeat(wire::MAX_KEY_BYTES + 1);
    let left = plane(4, 4, 0.0);
    let right = plane(4, 4, 1.0);
    let mut bytes = Vec::new();
    let fault = wire_fault(
        wire::encode_frame_into(&mut bytes, &key, 0, &left, &right)
            .expect_err("over-cap key must not encode"),
    );
    assert!(matches!(fault, WireFault::Key), "got {fault:?}");
    let fault = wire_fault(
        wire::encode_hello_into(&mut bytes, &key).expect_err("over-cap hello must not encode"),
    );
    assert!(matches!(fault, WireFault::Key), "got {fault:?}");

    // A hand-built message smuggling an over-cap key length is refused by
    // the validator, so hostile peers cannot grow server-side session
    // state with multi-kilobyte keys.
    let key_len = wire::MAX_KEY_BYTES + 1;
    let declared = HEADER_BYTES - 4 + key_len + 8;
    let mut msg = Vec::new();
    msg.extend_from_slice(&u32::to_le_bytes(declared as u32));
    msg.extend_from_slice(b"ASVF");
    msg.extend_from_slice(&wire::VERSION.to_le_bytes());
    msg.extend_from_slice(&u16::to_le_bytes(key_len as u16));
    msg.extend_from_slice(&0u64.to_le_bytes());
    msg.extend_from_slice(&1u32.to_le_bytes());
    msg.extend_from_slice(&1u32.to_le_bytes());
    msg.extend_from_slice(&[0, 0, 0, 0]);
    msg.resize(4 + declared, b'k');
    restamp_crc(&mut msg);
    let fault = wire_fault(wire::validate_message(&msg, MAX_MESSAGE_BYTES).unwrap_err());
    assert!(matches!(fault, WireFault::Key), "got {fault:?}");
}

#[test]
fn non_utf8_key_is_rejected() {
    let mut bytes = encoded("abc", 0, 4, 4);
    bytes[HEADER_BYTES] = 0xFF;
    bytes[HEADER_BYTES + 1] = 0xFE;
    restamp_crc(&mut bytes);
    let fault = wire_fault(wire::validate_message(&bytes, MAX_MESSAGE_BYTES).unwrap_err());
    assert!(matches!(fault, WireFault::Key), "got {fault:?}");
}

/// Recomputes and patches the CRC so structural corruptions upstream of the
/// checksum can be tested in isolation.
fn restamp_crc(bytes: &mut [u8]) {
    // Mirror the module's layout: CRC of everything after the length
    // prefix, checksum field read as zero (CRC-32 IEEE reflected).
    const fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
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
            t[i] = crc;
            i += 1;
        }
        t
    }
    const TABLE: [u32; 256] = table();
    let mut crc = 0xFFFF_FFFFu32;
    let mut update = |chunk: &[u8]| {
        for &b in chunk {
            crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
    };
    update(&bytes[4..28]);
    update(&[0, 0, 0, 0]);
    update(&bytes[32..]);
    let crc = !crc;
    bytes[28..32].copy_from_slice(&crc.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// decode(encode(frame)) is the identity on key, sequence and pixels,
    /// for arbitrary dimensions, keys and plane contents.
    #[test]
    fn encode_decode_round_trips_byte_identically(
        seq in 0u64..u64::MAX,
        width in 1usize..24,
        height in 1usize..16,
        key_salt in 0usize..64,
        pixel_salt in -1000.0f32..1000.0,
    ) {
        let key = format!("session-{key_salt}");
        let left = plane(width, height, pixel_salt);
        let right = plane(width, height, -pixel_salt);
        let mut bytes = Vec::new();
        wire::encode_frame_into(&mut bytes, &key, seq, &left, &right).unwrap();
        prop_assert_eq!(bytes.len(), wire::encoded_len(&key, width, height));
        let (frame, decoded_left, decoded_right) = decode(&bytes).unwrap();
        prop_assert_eq!(frame.key, key.as_str());
        prop_assert_eq!(frame.seq, seq);
        prop_assert_eq!(decoded_left.as_slice(), left.as_slice());
        prop_assert_eq!(decoded_right.as_slice(), right.as_slice());
    }

    /// Random byte-flips of a valid message never decode successfully and
    /// never panic — any flip is caught by a structural check or the CRC.
    #[test]
    fn random_corruption_never_decodes(
        at_fraction in 0.0f64..1.0,
        mask in 1u32..256,
    ) {
        let bytes = encoded("fuzz", 11, 6, 5);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let at = ((bytes.len() as f64 - 1.0) * at_fraction) as usize;
        let mut mangled = bytes;
        mangled[at] ^= u8::try_from(mask).expect("mask < 256");
        prop_assert!(decode(&mangled).is_err());
    }
}
