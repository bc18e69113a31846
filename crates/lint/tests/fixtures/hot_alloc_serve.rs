//! Fixture: the serve shell's per-frame decode as it was before the batched
//! hand-off (linted as `crates/serve/src/server.rs`). Each text line and each
//! binary frame was drained out of the receive buffer into a fresh `Vec` — an
//! allocation plus a memmove of the rest of the buffer per frame. Both must
//! fire; the cursor walk that replaced them (`skip_frames`) must not.

pub fn drain_text(buf: &mut Vec<u8>, lines: &mut u64) {
    while let Some(nl) = buf.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = buf.drain(..=nl).collect();
        *lines += line.len() as u64;
    }
}

pub fn drain_binary(buf: &mut Vec<u8>, frames: &mut u64) {
    loop {
        if buf.len() < 4 {
            return;
        }
        let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if buf.len() < 4 + len {
            return;
        }
        let payload = buf.drain(..4 + len).skip(4).collect::<Vec<u8>>();
        *frames += payload.len() as u64;
    }
}

pub fn skip_frames(buf: &mut Vec<u8>, frames: &mut u64) {
    let mut at = 0;
    while let Some(len) = buf[at..].first().map(|&b| b as usize) {
        if buf.len() < at + 1 + len {
            break;
        }
        at += 1 + len;
        *frames += 1;
    }
    buf.drain(..at);
}
