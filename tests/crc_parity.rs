//! CRC-32 parity: [`numeric::crc32`] — one slicing-by-16 stream below
//! [`SPLIT_MIN`] bytes, two interleaved streams joined by a GF(2) shift
//! at or above it — must give exactly the digest of the plain
//! byte-at-a-time loop, at every length around the cut, every start
//! alignment, any way a stream is cut into `update` calls, and on the
//! real frames the daemon and the journal write at 2048 lanes × 8 steps.
//! A digest that differs anywhere would make every frame of that shape
//! unreadable, so these run in tier-1.

use automotive_idling::fleetstate::format::{HEADER_LEN, TRAILER_LEN, WIRE};
use automotive_idling::fleetstate::{FleetConfig, FleetRunner, Journal};
use automotive_idling::numeric::crc32::{crc32, Hasher, SPLIT_MIN};
use automotive_idling::skirental::batch::VertexKind;
use fleetd::proto::{decode_reply, decode_request, encode_reply, encode_request, Reply, Request};

const LANES: usize = 2048;
const STEPS: usize = 8;

/// The reference: the reflected CRC-32 of `bytes`, one byte and one
/// table lookup at a time, with the table built here bit by bit.
fn reference_crc32(bytes: &[u8]) -> u32 {
    let table: Vec<u32> = (0..256u32)
        .map(|i| (0..8).fold(i, |c, _| if c & 1 != 0 { (c >> 1) ^ 0xEDB8_8320 } else { c >> 1 }))
        .collect();
    !bytes.iter().fold(!0u32, |c, &b| (c >> 8) ^ table[((c ^ u32::from(b)) & 0xFF) as usize])
}

/// Deterministic bytes with no short period.
fn bytes(len: usize) -> Vec<u8> {
    (0..len as u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8 ^ (i >> 13) as u8).collect()
}

/// Stop rows straddling the 28 s break-even, time-major.
fn rows() -> Vec<Vec<f64>> {
    (0..STEPS)
        .map(|t| (0..LANES).map(|i| 0.5 + ((t * 31 + i * 7) % 97) as f64 * 0.9).collect())
        .collect()
}

fn config() -> FleetConfig {
    FleetConfig {
        lanes: LANES,
        break_even: 28.0,
        window: Some(50),
        min_history: 3,
        seed: 1,
        trace_stream_base: 0,
    }
}

/// Asserts a frame's stored trailer is the reference digest of the
/// bytes before it.
fn assert_trailer(frame: &[u8], what: &str) {
    let body = frame.len() - TRAILER_LEN;
    let stored = u32::from_le_bytes(frame[body..].try_into().unwrap());
    assert_eq!(stored, reference_crc32(&frame[..body]), "{what}: stored trailer");
    assert_eq!(crc32(&frame[..body]), stored, "{what}: numeric::crc32");
}

#[test]
fn lengths_around_the_split_at_every_alignment() {
    let buf = bytes(SPLIT_MIN + 64);
    for delta in [-16, -15, -1, 0, 1, 15, 16] {
        let len = (SPLIT_MIN as isize + delta) as usize;
        for start in 0..16 {
            let data = &buf[start..start + len];
            assert_eq!(crc32(data), reference_crc32(data), "len {len}, start {start}");
        }
    }
}

#[test]
fn streamed_cuts_across_the_two_halves() {
    let data = bytes(128 << 10);
    let want = reference_crc32(&data);
    let mid = data.len() / 2;
    let cut_sets: [&[usize]; 6] = [
        &[mid],
        &[mid - 1, mid + 1],
        &[mid - SPLIT_MIN, mid + SPLIT_MIN],
        &[7, mid + 15, data.len() - 5],
        &[SPLIT_MIN - 1, 2 * SPLIT_MIN + 1, mid + 3],
        &[1, 2, 3, mid - 16, mid + 16, data.len() - 1],
    ];
    for cuts in cut_sets {
        let mut h = Hasher::new();
        let mut from = 0;
        for &cut in cuts.iter().chain([&data.len()]) {
            h.update(&data[from..cut]);
            from = cut;
        }
        assert_eq!(h.finalize(), want, "cuts {cuts:?}");
    }
}

#[test]
fn bulk_submit_and_decisions_frames() {
    let rows = rows();
    let submit = encode_request(&Request::Submit { first_step: 0, rows: rows.clone() });
    assert_eq!(submit.len(), HEADER_LEN + 16 + LANES * STEPS * 8 + TRAILER_LEN);
    assert_trailer(&submit, "Submit");
    assert_eq!(decode_request(&submit), Ok(Request::Submit { first_step: 0, rows: rows.clone() }));

    let mut runner = FleetRunner::new(&config(), 1).unwrap();
    let decided = runner.run_block_decided(&rows, false).unwrap();
    assert!(decided.vertices().iter().any(|&v| v != VertexKind::ColdStart));
    let (thresholds, vertices) = decided.into_parts();
    let reply = Reply::Decisions {
        first_step: 0,
        steps: STEPS as u32,
        lanes: LANES as u32,
        thresholds,
        vertices,
    };
    let frame = encode_reply(&reply);
    assert_eq!(frame.len(), HEADER_LEN + 16 + LANES * STEPS * 9 + TRAILER_LEN);
    assert_trailer(&frame, "Decisions");
    assert_eq!(decode_reply(&frame), Ok(reply));
}

#[test]
fn bulk_journal_frames() {
    let dir = std::env::temp_dir().join(format!("crc-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bulk.journal");
    let mut journal = Journal::create(&path, &config()).unwrap();
    journal.append_block(0, &rows()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let mut at = 0;
    let mut frames = 0;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap()) as usize;
        let end = at + HEADER_LEN + len + TRAILER_LEN;
        assert_trailer(&bytes[at..end], &format!("journal frame {frames}"));
        at = end;
        frames += 1;
    }
    assert_eq!(frames, 1 + STEPS, "header plus one Observations frame per step");
    assert_eq!(at, bytes.len());
}

/// A one-bit flip anywhere in the second half of a 128 KiB frame — the
/// half the second stream folds, and the trailer — fails `WIRE.decode`.
/// A prime stride walks every byte alignment and bit position; the
/// bytes at the cut, the last payload byte and the trailer take all
/// eight flips.
#[test]
fn a_bit_flip_in_the_second_half_fails_decode() {
    let payload = bytes((128 << 10) - HEADER_LEN - TRAILER_LEN);
    let mut frame = Vec::new();
    WIRE.append(&mut frame, 7, |out| out.extend_from_slice(&payload));
    assert_eq!(frame.len(), 128 << 10);
    assert!(WIRE.decode(&frame).is_ok());
    let body = frame.len() - TRAILER_LEN;
    let cut = body / 32 * 16;
    let mut flips: Vec<(usize, u8)> =
        (cut..frame.len()).step_by(61).map(|i| (i, i as u8 % 8)).collect();
    for i in [cut - 1, cut, cut + 1, body - 1, body, frame.len() - 1] {
        flips.extend((0..8).map(|bit| (i, bit)));
    }
    for (i, bit) in flips {
        frame[i] ^= 1 << bit;
        assert!(WIRE.decode(&frame).is_err(), "flip of bit {bit} at byte {i} went unseen");
        frame[i] ^= 1 << bit;
    }
}
