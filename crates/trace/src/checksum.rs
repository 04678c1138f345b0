//! Container checksums: which hash seals which format version.
//!
//! Every checksum in a `.lgz` trace or a `.lgzc` corpus — the trailer,
//! the extent footer's and the rollup section's self-checksums, and a
//! rollup's content checksum — uses one hash, fixed by the container's
//! version byte:
//!
//! | container | versions | hash |
//! |-----------|----------|------|
//! | `.lgz`    | 1, 2     | FNV-1a (64-bit) |
//! | `.lgz`    | 3        | XXH64, seed 0 |
//! | `.lgzc`   | 1        | FNV-1a (64-bit) |
//! | `.lgzc`   | 2        | XXH64, seed 0 |
//!
//! FNV-1a folds one byte at a time through a multiply, so it runs at the
//! multiplier's latency, a few cycles per byte, however it is written.
//! XXH64 keeps four independent lanes over 32-byte stripes and runs
//! several times faster, so writers emit only the XXH64 versions; the
//! FNV-1a versions stay readable.

/// The hash a container version is sealed with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Checksum {
    /// 64-bit FNV-1a (`.lgz` v1/v2, `.lgzc` v1).
    Fnv1a,
    /// XXH64 with seed 0 (`.lgz` v3, `.lgzc` v2).
    Xxh64,
}

impl Checksum {
    /// The hash every writer uses.
    pub(crate) const CURRENT: Checksum = Checksum::Xxh64;

    /// The hash of a `.lgz` trace with version byte `version`.
    pub(crate) fn of_trace(version: u8) -> Checksum {
        if version <= 2 {
            Checksum::Fnv1a
        } else {
            Checksum::Xxh64
        }
    }

    /// The hash of a `.lgzc` corpus with version byte `version`.
    pub(crate) fn of_corpus(version: u8) -> Checksum {
        if version <= 1 {
            Checksum::Fnv1a
        } else {
            Checksum::Xxh64
        }
    }

    /// A fresh streaming hasher.
    pub(crate) fn hasher(self) -> Hasher {
        match self {
            Checksum::Fnv1a => Hasher::Fnv1a(Fnv1a::new()),
            Checksum::Xxh64 => Hasher::Xxh64(Xxh64::new()),
        }
    }

    /// Hashes `bytes` in one shot.
    pub(crate) fn digest(self, bytes: &[u8]) -> u64 {
        let mut h = self.hasher();
        h.update(bytes);
        h.finish()
    }
}

/// A streaming hasher of either kind.
#[derive(Clone, Debug)]
pub(crate) enum Hasher {
    /// See [`Fnv1a`].
    Fnv1a(Fnv1a),
    /// See [`Xxh64`].
    Xxh64(Xxh64),
}

impl Hasher {
    /// Folds `bytes` into the running hash.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        match self {
            Hasher::Fnv1a(h) => h.update(bytes),
            Hasher::Xxh64(h) => h.update(bytes),
        }
    }

    /// The hash of everything folded in so far; the state stays usable,
    /// so a caller can snapshot the hash mid-stream.
    pub(crate) fn finish(&self) -> u64 {
        match self {
            Hasher::Fnv1a(h) => h.finish(),
            Hasher::Xxh64(h) => h.finish(),
        }
    }
}

/// Streaming 64-bit FNV-1a.
#[derive(Clone, Debug)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes per stripe: four 8-byte lanes.
const STRIPE: usize = 32;

/// Streaming XXH64 with seed 0, byte-compatible with the reference
/// implementation (`XXH64(data, len, 0)`).
#[derive(Clone, Debug)]
pub(crate) struct Xxh64 {
    lanes: [u64; 4],
    /// A partial stripe carried between `update` calls.
    pending: [u8; STRIPE],
    pending_len: usize,
    total: u64,
}

fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte slice"))
}

fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn merge_round(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

impl Xxh64 {
    pub(crate) fn new() -> Self {
        Xxh64 {
            lanes: [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)],
            pending: [0; STRIPE],
            pending_len: 0,
            total: 0,
        }
    }

    /// Folds whole stripes into the lanes; `stripes.len()` must be a
    /// multiple of [`STRIPE`].
    fn consume(&mut self, stripes: &[u8]) {
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for s in stripes.chunks_exact(STRIPE) {
            a = round(a, read_u64(&s[0..]));
            b = round(b, read_u64(&s[8..]));
            c = round(c, read_u64(&s[16..]));
            d = round(d, read_u64(&s[24..]));
        }
        self.lanes = [a, b, c, d];
    }

    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (STRIPE - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < STRIPE {
                return;
            }
            let stripe = self.pending;
            self.consume(&stripe);
            self.pending_len = 0;
        }
        let whole = bytes.len() - bytes.len() % STRIPE;
        self.consume(&bytes[..whole]);
        let rest = &bytes[whole..];
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    pub(crate) fn finish(&self) -> u64 {
        let mut h = if self.total >= STRIPE as u64 {
            let [a, b, c, d] = self.lanes;
            let mut h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            for lane in self.lanes {
                h = merge_round(h, lane);
            }
            h
        } else {
            P5
        };
        h = h.wrapping_add(self.total);
        let mut tail = &self.pending[..self.pending_len];
        while tail.len() >= 8 {
            h ^= round(0, read_u64(tail));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let word = u32::from_le_bytes(tail[..4].try_into().expect("4-byte slice"));
            h ^= u64::from(word).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            tail = &tail[4..];
        }
        for &byte in tail {
            h ^= u64::from(byte).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xxh64(bytes: &[u8]) -> u64 {
        Checksum::Xxh64.digest(bytes)
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a test vector: "a" hashes to 0xaf63dc4c8601ec8c.
        let mut h = Fnv1a::new();
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn xxh64_known_answers() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: the only vector here that runs the four-lane stripe
        // path and the lane merge.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn xxh64_chunked_streaming_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 + 7) as u8).collect();
        let whole = xxh64(&data);
        for chunk in [1, 3, 31, 32, 33, 100] {
            let mut h = Xxh64::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finish(), whole, "chunk size {chunk}");
        }
    }
}
