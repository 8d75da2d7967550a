//! The workspace's two seeded generators and its seed-derivation
//! discipline, in one module.
//!
//! * [`SplitMix64`] — the load generator's and the fault injectors'
//!   streams, and the finalizer behind [`derive_seed`] and [`unit_hash`],
//!   which seed every stream in the workspace.
//! * [`Xoshiro256pp`] — xoshiro256++, the simulator's behaviour streams
//!   (netsim's world and hosts), the survey prober and the property-test
//!   generator.
//!
//! No other crate implements either. The tests below pin each stream bit
//! for bit to the copies this module replaced, so a drift in constants or
//! mixing order cannot silently re-seed the workspace.
//!
//! The discipline (DESIGN.md §6, §10):
//!
//! * One root seed per run. Component `i` of a fan-out draws from
//!   [`derive_seed`]`(root, i)` — decorrelated child streams without any
//!   shared mutable RNG.
//! * Each decision point consumes **exactly one draw** regardless of the
//!   outcome ([`SplitMix64::coin`] at probability 0 still draws), so
//!   schedules stay aligned across configurations.

use std::ops::Range;

/// Uniform in `[0, 1)` from the top 53 bits of `bits`.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Derive a child seed from a parent seed and a stream index (SplitMix64
/// finalizer). Distinct streams of one parent are decorrelated; the same
/// `(parent, stream)` is always the same seed.
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    let mut x = parent ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic per-entity hash in `[0, 1)`, for density decisions
/// ("is this address a live host?") that must not consume RNG state.
pub fn unit_hash(parent: u64, entity: u64) -> f64 {
    unit_f64(derive_seed(parent, entity))
}

/// A SplitMix64 stream. One instance per logical stream (connection,
/// worker, task); the draw *sequence* is a pure function of the seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Stream seeded directly (combine with [`derive_seed`] for child
    /// streams).
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Bernoulli trial. `p <= 0` never fires, `p >= 1` always fires; both
    /// edges still consume one draw so schedules stay aligned across
    /// configurations.
    pub fn coin(&mut self, p: f64) -> bool {
        let u = self.unit();
        p > 0.0 && (p >= 1.0 || u < p)
    }

    /// Uniform in `[1, n]`; `n == 0` yields 1 (still consumes a draw).
    pub fn one_to(&mut self, n: u64) -> u64 {
        let v = self.next_u64();
        if n == 0 {
            1
        } else {
            1 + v % n
        }
    }
}

/// A xoshiro256++ stream, seeded through [`SplitMix64`]. 2^256 − 1
/// period; the draw sequence is a pure function of the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Stream whose state is the first four SplitMix64 draws of `seed`.
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Xoshiro256pp {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256pp { s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()] }
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform in the half-open `range`. Panics on an empty range; a draw
    /// that rounds up to the excluded end returns the start instead.
    #[inline]
    pub fn range_f64(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "empty or inverted range");
        let v = range.start + (range.end - range.start) * self.unit();
        if v >= range.end {
            range.start
        } else {
            v
        }
    }

    /// Uniform in `[0, n)` by widening multiply (Lemire's method without
    /// the rejection step: the bias is below 2^-64 per draw). Panics if
    /// `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The retired faultsim `SplitMix64::next_u64` /
    /// `beware_serve::loadgen::splitmix64` step, reproduced verbatim so
    /// the canonical stream is pinned to the deleted copies bit for bit.
    fn legacy_step(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The retired faultsim `derive_seed` /
    /// `beware_netsim::rng::derive_seed` finalizer, reproduced verbatim.
    fn legacy_derive(parent: u64, stream: u64) -> u64 {
        let mut x = parent ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    #[test]
    fn stream_matches_the_retired_copies() {
        for seed in [0u64, 1, 42, 0xbe0a_2e11, u64::MAX] {
            let mut canon = SplitMix64::new(seed);
            let mut legacy = seed;
            for i in 0..256 {
                assert_eq!(canon.next_u64(), legacy_step(&mut legacy), "seed {seed} draw {i}");
            }
        }
    }

    #[test]
    fn derive_matches_the_retired_copies() {
        for parent in [0u64, 7, 0x5ca3_9e44, u64::MAX] {
            for stream in [0u64, 1, 2, 1000, u64::MAX] {
                assert_eq!(derive_seed(parent, stream), legacy_derive(parent, stream));
            }
        }
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
    }

    #[test]
    fn known_answer_values_are_pinned() {
        // Frozen outputs: any change to the constants or the mixing order
        // fails here before it silently re-seeds the whole workspace.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(r.next_u64(), 0x06c4_5d18_8009_454f);
        assert_eq!(derive_seed(0, 0), 0);
        assert_eq!(derive_seed(42, 7), legacy_derive(42, 7));
        // The fault schedules' streams, frozen when faultsim dropped its
        // private copy.
        assert_eq!(derive_seed(7, 1), 0xf75f_04cb_b5a1_a1dd);
        let mut f = SplitMix64::new(derive_seed(0xbe0a, 3));
        assert_eq!(f.next_u64(), 0x9357_2081_16c5_6e3c);
    }

    #[test]
    fn streams_are_deterministic_and_aligned() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Edge-probability coins still consume exactly one draw.
        let mut c = SplitMix64::new(9);
        let mut d = SplitMix64::new(9);
        assert!(!c.coin(0.0));
        assert!(d.coin(1.0));
        assert_eq!(c.next_u64(), d.next_u64());
    }

    #[test]
    fn one_to_bounds() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            let v = r.one_to(7);
            assert!((1..=7).contains(&v));
        }
        assert_eq!(r.one_to(0), 1);
    }

    #[test]
    fn unit_and_unit_hash_in_range() {
        let mut r = SplitMix64::new(5);
        for i in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            let h = unit_hash(5, i);
            assert!((0.0..1.0).contains(&h));
        }
        assert_eq!(unit_hash(5, 3), unit_hash(5, 3));
    }

    /// The first 64 draws of seeds 0, 1, 42 and `u64::MAX`, recorded from
    /// the retired `rand` stand-in's standard generator, which every
    /// netsim world, host and survey stream was drawn from.
    #[rustfmt::skip]
    const XOSHIRO_GOLDEN: [(u64, [u64; 64]); 4] = [
        (0, [
            0x53175d61490b23df, 0x61da6f3dc380d507, 0x5c0fdf91ec9a7bfc, 0x02eebf8c3bbe5e1a,
            0x7eca04ebaf4a5eea, 0x0543c37757f08d9a, 0xdb7490c75ab5026e, 0xd87343e6464bc959,
            0x4b7da0a02389f0ff, 0x1300fc58c0424c16, 0x5084843206c19968, 0x10ea073de9aa4dfc,
            0x1aae554343960cc1, 0x1804139f10fae720, 0x10d790e7b8ac10fa, 0x667d2bffdd1496f7,
            0xa04620d3d0fc04a8, 0x1d50881230af9cc3, 0x53be287ded35f698, 0x673235793f7908e1,
            0x46e91feb4535fbdc, 0x216c1524cbac57c0, 0x0a53eb08063a44df, 0x45f965b948778197,
            0x6f2fa9d01ba03887, 0x60c57eba69ed4e15, 0x22c65ce977dd39cb, 0xa5d1ce0c5a7c6abf,
            0xe8e26337cde13268, 0x0b4a575fdb6f8160, 0x400feb0bae786424, 0x633e0b621080bf50,
            0x5a456e5a144e059b, 0xdc75548b5cd2e8cd, 0xdf9d76f766648113, 0x342bf8b7aec0de41,
            0x831593e6b50ae928, 0x29e12b2a1872d7db, 0xb6362d8b640aec49, 0x2e78698eb5bba4a9,
            0x9064494b8287afb9, 0x4c04974c6c1b4767, 0x5863b8685408be73, 0x0e8ca571066bc302,
            0x088959d638956a37, 0x2e9392dfd5c30e86, 0x36da000d696e9d9e, 0x2a839b60548c1044,
            0x3ebbaffcc5f270ca, 0x6da02738c0f92ee5, 0x962fd83157fe1682, 0x856dcc088cece014,
            0xca8717351ab24cbd, 0x231527552d018184, 0x06793b14839607ec, 0xc54f89a7e193e5c1,
            0xbacc209dd739707c, 0x7dc7053580f1ff20, 0x4ee696659cc1be91, 0xa3cb5d7769921646,
            0x9c002aaa8a687ded, 0xc0c3a216563d9ae2, 0x035b6d98ee8a1b19, 0x68d89ab6ea60f57d,
        ]),
        (1, [
            0xcfc5d07f6f03c29b, 0xbf424132963fe08d, 0x19a37d5757aaf520, 0xbf08119f05cd56d6,
            0x2f47184b86186fa4, 0x97299fcae7202345, 0xfca3c79508f41507, 0x85fea5c90363f221,
            0x18bae5b30d334bd0, 0x226113c9f026ec16, 0xeb9e0ef9dccfe649, 0x57efaedd9f6cffb3,
            0x128ae2d5697640d6, 0x65033a4eee505049, 0x16e9453ed54a88ba, 0x28065aa8f428a8bb,
            0x8ea047165f041da2, 0x791032d9a4f72ef3, 0xf53882542839ed9e, 0xa46adeb140800f4a,
            0x439401c53ed0d70b, 0xcb3fb2f0cfd1060a, 0x28a2232958e06eeb, 0x69d8ec3a36a7ffa4,
            0x3cd9741a15d0a26b, 0x9a4ebf2d376dba70, 0x2f27c4c8cc76f56a, 0xfb68dacb355a2892,
            0x9c77729184aa08f8, 0xbae7a269e5248e36, 0x97f3078dc02e78af, 0xa646c7e95f6ed1df,
            0x81df0abdf578c676, 0x9ecd7c9da746b5fd, 0xf44a5948aaf0b536, 0x52b44e313e400271,
            0x1bb5f30cc31948fd, 0xbbf833184be068ea, 0xe70e2ead13b404f4, 0xb115c91c2095ae67,
            0x78672edc8b5acacc, 0x7fbb09eab8d1b4d7, 0x631f1cdf5e4e66ed, 0xceb9764e32a5c00e,
            0x91e7fea40602fe82, 0x986364e157c36241, 0xa03a545afe1dcc87, 0x3316b8517edb39ec,
            0x1588ceb81a667937, 0x0f1fd6f5d7e6580c, 0xbebadfa444a52451, 0x91a83dd36f6f1f3d,
            0x4faf0f08137610fe, 0x27be839411909013, 0x6f4de38408d73bc7, 0x7d5227eccb8e066a,
            0x3859a14d6b884869, 0x42cb0b2b0c27cb53, 0x65278361202136df, 0x1524403382bbb7c2,
            0x2cab33c6c2ce2ee9, 0x763a9a9b5976a28f, 0xd811a286f4041273, 0x5ca3764bbdf7fb18,
        ]),
        (42, [
            0xd0764d4f4476689f, 0x519e4174576f3791, 0xfbe07cfb0c24ed8c, 0xb37d9f600cd835b8,
            0xcb231c3874846a73, 0x968d9f004e50de7d, 0x201718ff221a3556, 0x9ae94e070ed8cb46,
            0x352cf3daf095ccc7, 0xeeefd63219b4a0d4, 0x8f3dfa98020e7942, 0xd99b8e00792f360d,
            0xae14e77054359b98, 0x11ccbfbb36590dbd, 0x672fcfd4efd0e0bd, 0x8bc6e858d0501168,
            0x367abb657f468b2e, 0x0ce254eaf1b0177e, 0x939e7abb81f5d5fc, 0x7784cb89e2481d7b,
            0x296566311008aaa4, 0xdcda5b94829765e3, 0xa70de5b169e02435, 0x8686e981e604aa1c,
            0xd0dafde236ba2593, 0x24896b7216d2d83c, 0x6d172ed3e81a7e8c, 0xf2eda4bfdf254cbb,
            0x85ff42c6c6703f37, 0xdf321e3788bd2ceb, 0x15a0b07d583a481f, 0xa318445d13be8320,
            0xb829333a229d7a38, 0x4775fb7db9c64a04, 0xfbf66cab58c5ce18, 0xb726234444b3460f,
            0xc9eae0817bec39d6, 0x680386963ebb4053, 0x89eb358fd9821a96, 0xcca7e752da48d83d,
            0xda7120595706973d, 0x2b5d999ce90ca71e, 0x77a22c4f769f4fdf, 0x977a0e80f0435870,
            0x0c3657ed88978d97, 0x6a22c726e186d3a2, 0xa4dee725ea8ec0a8, 0x94220f4a76070359,
            0xc1ad5450730123f8, 0x3dfc82c5e51ecd63, 0xbe6d5f7cba543f17, 0x7d650780ce30aa72,
            0x7405e883d0b9af7b, 0xcf43ed6994a6d3b3, 0xa062272dbbd8cd61, 0x2d058c37aeff1a86,
            0xbccf20f4077763ad, 0x2ef7bb1d431319c6, 0xa6d8f28a297ebba4, 0x0f77d1b5e9830d8b,
            0xa78f9c5a19171faa, 0xf774ba509e10d54b, 0xd7f2b08901a4d152, 0xf648960c3bbe8add,
        ]),
        (u64::MAX, [
            0x56ccf8ce948e27b2, 0xe68588432e5a5b90, 0xe3e9b5a48119ca8b, 0x460f19495532ae73,
            0xa7d62040ea9263e1, 0x66f1fb2ac9402c14, 0xe243b47de8a73f68, 0x7c93fdab4c7b3dff,
            0xa285b65e80080825, 0xdaa2984842f0ced7, 0x578ae4525854cedf, 0xa4c8e50e9dcc99d4,
            0xec90040814db4071, 0x0f07e2e73e5b4591, 0x445d4b54e963d2dd, 0x53b23301313ec105,
            0xc377230e44e67643, 0x279ef92dc66be3cc, 0x5d4b6e8ed1d882ab, 0x11d9b5918d4d57a1,
            0x32c14ddbee71348c, 0x93f91010e464e2ed, 0x69e31711847544ff, 0xc8f5db40eb6e3f01,
            0x0d0558fb1ed8fbf6, 0xbf6140c009d32a28, 0x363832457392cb36, 0xece17275d8bef338,
            0x46aca8e7c4caefc3, 0x60a5fd65d8c1d9ea, 0xed2b084f1f5e47fd, 0xd1d63815128a7b6a,
            0x6b73a912e99dc8ba, 0xdbd42c2aca4516fe, 0x8d13d66cbdc31c9e, 0x2c3c391ccbe97f5c,
            0x7d16cdf11644dafa, 0x821ee45ab2d5ad21, 0x3d916fb9e73c648b, 0x989b676d69a219c5,
            0x05512fb23641a821, 0x231ab9714f6fab8e, 0x4c23bfcee0b63c63, 0xe69d3f88b53c4edc,
            0xacfdb4c61b447be4, 0x55789834cb87acfc, 0x7c451d6bc7ef7ab8, 0x671a8035d172b268,
            0x1beacf6aee866b0d, 0x335f3edac33a61e8, 0x072fd08408c85397, 0x6280e4e41ab3e3cb,
            0x46ea1bd216efa2f0, 0xc74ab8a043fa93b4, 0x6dc57bdd007bb5a7, 0x6f072a8a2ec8fca8,
            0x8c3de1db61296a88, 0xe40094ded07d7702, 0xf2d0361d30decc3c, 0xfe828e904129eae1,
            0x2b9b6ec6b1ce375f, 0x5a2c6a55be9f585e, 0x8413a4fdf1282bba, 0x4aaef457dbf9b83e,
        ]),
    ];

    #[test]
    fn xoshiro_streams_match_the_retired_std_rng() {
        for (seed, draws) in XOSHIRO_GOLDEN {
            let mut r = Xoshiro256pp::seed_from_u64(seed);
            for (i, &want) in draws.iter().enumerate() {
                assert_eq!(r.next_u64(), want, "seed {seed} draw {i}");
            }
        }
        // `gen_range(0.25..0.75)` and `gen_range(f64::MIN_POSITIVE..1.0)`.
        let mut r = Xoshiro256pp::seed_from_u64(7);
        let quarter: Vec<u64> = (0..8).map(|_| r.range_f64(0.25..0.75).to_bits()).collect();
        let want = [
            0x3fd1c583400555d2,
            0x3fd581f91bbf49d3,
            0x3fe37b311b3b0d46,
            0x3fddabb3ed4c6300,
            0x3fe76b263f2f5790,
            0x3fdee70b6c4f8458,
            0x3fe3951f9b3621ea,
            0x3fda8e0b6b5b803c,
        ];
        assert_eq!(quarter, want);
        let mut r = Xoshiro256pp::seed_from_u64(7);
        let open: Vec<u64> =
            (0..4).map(|_| r.range_f64(f64::MIN_POSITIVE..1.0).to_bits()).collect();
        assert_eq!(
            open,
            [0x3fac583400555d20, 0x3fc607e46efd274c, 0x3fe6f66236761a8b, 0x3fdb5767da98c600]
        );
        // Half of these draws round up to the excluded end; the guard
        // returns the start for them.
        let mut r = Xoshiro256pp::seed_from_u64(3);
        assert!((0..1000).all(|_| r.range_f64(1.0..1.0 + f64::EPSILON) == 1.0));
        // `gen_range(1..=3)`: host.rs's duplicate count.
        let mut r = Xoshiro256pp::seed_from_u64(11);
        let dups: Vec<u64> = (0..28).map(|_| 1 + r.below(3)).collect();
        assert_eq!(
            dups,
            [3, 3, 3, 2, 1, 3, 1, 1, 3, 2, 3, 2, 1, 2, 1, 3, 1, 2, 3, 2, 1, 2, 3, 3, 3, 3, 2, 1]
        );
        // `gen_range(0..n)`: proptest's `below`.
        let mut r = Xoshiro256pp::seed_from_u64(13);
        let ns = [1u64, 2, 3, 7, 10, 100, 1000, 65_536, 1 << 40, u64::MAX];
        let below: Vec<u64> = ns.iter().map(|&n| r.below(n)).collect();
        assert_eq!(
            below,
            [0, 0, 1, 6, 2, 26, 38, 4736, 881_387_476_198, 2_542_291_313_203_600_494]
        );
    }
}
