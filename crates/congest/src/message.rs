//! Message payloads and size accounting.

/// A message payload with an accountable wire size.
///
/// The CONGEST model restricts messages to `O(log N)` bits. The simulator
/// does not serialize messages on the hot path (they move by `Clone`), but
/// it *charges* every message its declared [`Payload::size_bits`] and
/// reports the maximum observed size so experiments can verify the model's
/// discipline. Numeric fields of fixed precision are conventionally charged
/// one 64-bit word each, matching the paper's convention that message size
/// scales with the logarithm of the largest coefficient.
pub trait Payload: Clone + Send + Sync + std::fmt::Debug {
    /// Size of this message on the wire, in bits.
    fn size_bits(&self) -> u64;

    /// Optional canonical big-endian byte encoding, used by wire-format
    /// tests to check that `size_bits` is an upper bound on an actual
    /// encoding. `size_bits` is declared, not derived from this: a
    /// message may be charged a larger size class than it encodes to.
    ///
    /// The default encoding is empty; protocols that want the cross-check
    /// override this.
    fn encode(&self) -> Vec<u8> {
        Vec::new()
    }
}

impl Payload for u64 {
    fn size_bits(&self) -> u64 {
        64
    }

    fn encode(&self) -> Vec<u8> {
        self.to_be_bytes().to_vec()
    }
}

impl Payload for u32 {
    fn size_bits(&self) -> u64 {
        32
    }

    fn encode(&self) -> Vec<u8> {
        self.to_be_bytes().to_vec()
    }
}

impl Payload for f64 {
    fn size_bits(&self) -> u64 {
        64
    }

    fn encode(&self) -> Vec<u8> {
        self.to_be_bytes().to_vec()
    }
}

impl Payload for () {
    fn size_bits(&self) -> u64 {
        1
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn size_bits(&self) -> u64 {
        self.0.size_bits() + self.1.size_bits()
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = self.0.encode();
        out.extend(self.1.encode());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        assert_eq!(7u64.size_bits(), 64);
        assert_eq!(7u32.size_bits(), 32);
        assert_eq!(1.5f64.size_bits(), 64);
        assert_eq!(().size_bits(), 1);
        assert_eq!((1u32, 2u64).size_bits(), 96);
    }

    #[test]
    fn encodings_fit_declared_size() {
        fn check<P: Payload>(p: P) {
            let enc = p.encode();
            assert!((enc.len() as u64) * 8 <= p.size_bits().max(8));
        }
        check(123u64);
        check(123u32);
        check(2.25f64);
        check((9u32, 8u64));
    }

    #[test]
    fn u64_encoding_is_big_endian() {
        let enc = 0x0102_0304_0506_0708u64.encode();
        assert_eq!(&enc[..], &[1, 2, 3, 4, 5, 6, 7, 8]);
    }
}
