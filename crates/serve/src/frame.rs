//! Pipelined NDJSON framing: slicing complete request lines out of a
//! nonblocking read stream.
//!
//! The reactor reads whatever bytes a socket has ready — which may hold
//! several complete requests, a fraction of one, or a split that lands
//! mid-escape or mid-UTF-8 — and feeds them to a [`LineFramer`]. The
//! framer yields every *complete* line as a borrowed slice (zero-copy
//! when a read chunk already ends on a line boundary; only a trailing
//! partial line is buffered between reads), so a burst of pipelined
//! requests is parsed and admitted as one group instead of one request
//! per scheduler tick.
//!
//! Framing is defined purely over bytes: a line is everything up to the
//! next `\n` (a trailing `\r` is stripped). That makes the framing
//! invariant under arbitrary read-chunk splits — the property pinned by
//! `tests/framing_properties.rs`. UTF-8 validation happens later, per
//! line, in the protocol layer. The newline search ([`find_newline`])
//! reads eight bytes per step, in portable safe code; a property pins it
//! to the bytewise search.
//!
//! Oversized lines (no newline within [`LineFramer::max_line`] bytes) are
//! reported once as [`Framed::Oversized`] and skipped through their
//! terminating newline, bounding memory without desynchronizing the
//! stream.

/// One framing outcome passed to the [`LineFramer::feed`] callback.
#[derive(Debug, PartialEq, Eq)]
pub enum Framed<'a> {
    /// A complete line, `\n` (and any trailing `\r`) stripped.
    Line(&'a [u8]),
    /// A line exceeded the size limit; `dropped` bytes of it were
    /// discarded (the rest of the line, through its newline, is skipped
    /// too). Reported once per oversized line.
    Oversized {
        /// Bytes discarded when the limit tripped.
        dropped: usize,
    },
}

/// Reassembles NDJSON lines from arbitrarily split byte chunks.
#[derive(Debug)]
pub struct LineFramer {
    /// Trailing partial line carried between feeds.
    partial: Vec<u8>,
    /// Hard cap on one line's length.
    max_line: usize,
    /// Inside an oversized line, discarding through its newline.
    skipping: bool,
}

impl LineFramer {
    /// A framer that refuses lines longer than `max_line` bytes.
    pub fn new(max_line: usize) -> LineFramer {
        LineFramer { partial: Vec::new(), max_line: max_line.max(1), skipping: false }
    }

    /// The configured per-line byte limit.
    pub fn max_line(&self) -> usize {
        self.max_line
    }

    /// Bytes of an incomplete line currently buffered.
    pub fn buffered(&self) -> usize {
        self.partial.len()
    }

    /// Consumes one read chunk, invoking `on` for every line completed by
    /// it (in order). Complete lines whose bytes all sit inside `chunk`
    /// are passed as slices of `chunk` — no copy; only a trailing partial
    /// line is retained.
    pub fn feed<'a>(&mut self, chunk: &'a [u8], on: &mut dyn FnMut(Framed<'_>)) {
        let mut rest = chunk;
        while let Some(nl) = find_newline(rest) {
            let (line_end, after) = (&rest[..nl], &rest[nl + 1..]);
            if self.skipping {
                // The terminator of an oversized line: resynchronize.
                self.skipping = false;
            } else if self.partial.is_empty() {
                on(Framed::Line(strip_cr(line_end)));
            } else {
                self.partial.extend_from_slice(line_end);
                // Move out to satisfy the borrow checker, then restore the
                // (now empty) allocation for reuse.
                let mut line = std::mem::take(&mut self.partial);
                on(Framed::Line(strip_cr(&line)));
                line.clear();
                self.partial = line;
            }
            rest = after;
        }
        if self.skipping {
            return;
        }
        if self.partial.len() + rest.len() > self.max_line {
            let dropped = self.partial.len() + rest.len();
            self.partial.clear();
            self.skipping = true;
            on(Framed::Oversized { dropped });
            return;
        }
        self.partial.extend_from_slice(rest);
    }
}

/// The index of the first `\n` in `bytes`: the scan of
/// `bytes.iter().position(|&b| b == b'\n')`, eight bytes per step. Each
/// word is XORed with eight newlines so a newline byte becomes zero, and
/// the zero-byte test `(w - 0x01…01) & !w & 0x80…80` flags it. A borrow can
/// flag bytes above the first zero, never below, so the lowest flag is the
/// first newline.
pub fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    for (k, word) in (&mut words).enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("chunks of 8")) ^ NEWLINES;
        let flags = w.wrapping_sub(ONES) & !w & HIGHS;
        if flags != 0 {
            return Some(8 * k + flags.trailing_zeros() as usize / 8);
        }
    }
    let tail = bytes.len() - words.remainder().len();
    words.remainder().iter().position(|&b| b == b'\n').map(|k| tail + k)
}

/// Strips one trailing `\r` (CRLF clients).
fn strip_cr(line: &[u8]) -> &[u8] {
    match line.split_last() {
        Some((b'\r', rest)) => rest,
        _ => line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `chunks` and collects owned framing outcomes.
    fn collect(framer: &mut LineFramer, chunks: &[&[u8]]) -> Vec<(Option<Vec<u8>>, usize)> {
        let mut out = Vec::new();
        for chunk in chunks {
            framer.feed(chunk, &mut |framed| match framed {
                Framed::Line(line) => out.push((Some(line.to_vec()), 0)),
                Framed::Oversized { dropped } => out.push((None, dropped)),
            });
        }
        out
    }

    #[test]
    fn splits_multiple_lines_in_one_chunk() {
        let mut framer = LineFramer::new(1024);
        let got = collect(&mut framer, &[b"a\nbb\r\nccc\nd"]);
        let lines: Vec<_> = got.iter().map(|(l, _)| l.clone().unwrap()).collect();
        assert_eq!(lines, vec![b"a".to_vec(), b"bb".to_vec(), b"ccc".to_vec()]);
        assert_eq!(framer.buffered(), 1, "trailing partial retained");
    }

    #[test]
    fn reassembles_across_byte_at_a_time_feeds() {
        let mut framer = LineFramer::new(1024);
        let text = b"hello\nworld\n";
        let chunks: Vec<&[u8]> = text.chunks(1).collect();
        let got = collect(&mut framer, &chunks);
        let lines: Vec<_> = got.iter().map(|(l, _)| l.clone().unwrap()).collect();
        assert_eq!(lines, vec![b"hello".to_vec(), b"world".to_vec()]);
        assert_eq!(framer.buffered(), 0);
    }

    #[test]
    fn oversized_lines_are_reported_once_and_skipped_to_the_newline() {
        let mut framer = LineFramer::new(4);
        let got = collect(&mut framer, &[b"toolong", b"er\nok\n"]);
        assert_eq!(got[0], (None, 7), "limit trips at first overflowing feed");
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].0.as_deref(), Some(b"ok".as_slice()), "resynchronized after newline");
    }

    #[test]
    fn the_word_scan_finds_the_first_newline_at_every_offset_and_alignment() {
        // Filler next to every byte value the zero-byte test could confuse
        // with a newline: zero, 0x0b and 0x09 (one bit off), high bytes.
        let filler = |k: usize| [b'x', 0x00, 0xff, 0x8a, 0x0b, 0x09, 0x80][k % 7];
        let mut buffer: Vec<u8> = (0..80).map(filler).collect();
        for start in 0..8 {
            for end in start..buffer.len() {
                assert_eq!(find_newline(&buffer[start..end]), None);
            }
        }
        // One newline at every position of every window start (every
        // alignment), with a second newline after it.
        for at in 0..72 {
            buffer = (0..80).map(filler).collect();
            buffer[at] = b'\n';
            buffer[at + 1 + at % 8] = b'\n';
            for start in 0..=at {
                for end in at + 1..=buffer.len() {
                    let window = &buffer[start..end];
                    let bytewise = window.iter().position(|&b| b == b'\n');
                    assert_eq!(find_newline(window), bytewise, "at {at} window {start}..{end}");
                }
            }
        }
    }

    #[test]
    fn empty_lines_pass_through() {
        let mut framer = LineFramer::new(64);
        let got = collect(&mut framer, &[b"\n\nx\n"]);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0.as_deref(), Some(b"".as_slice()));
        assert_eq!(got[2].0.as_deref(), Some(b"x".as_slice()));
    }
}
