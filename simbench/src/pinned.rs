//! Pinned output digests: `(workload, size, seed, digest)` for seeds 0–20
//! and the held-out seed (and seed 1 of the tiny size). A speed-only change
//! leaves every one of them unchanged; a change that means to alter
//! simulated results regenerates them with `--repeat 1 --seed <n>`, copying
//! the printed `digest`.

/// The seed held out of tuning: a claimed gain must also hold here.
pub const HELD_OUT_SEED: u64 = 104_729;

const PINNED: &[(&str, &str, u64, u64)] = &[
    ("dc_burst", "tiny", 1, 0xc0e73cddf71d9534),
    ("dc_burst", "full", 0, 0xda6c64867f3af915),
    ("dc_burst", "full", 1, 0xd595dfb495f8abe8),
    ("dc_burst", "full", 2, 0x619f373e1e05174a),
    ("dc_burst", "full", 3, 0x82a8455ec33d5edc),
    ("dc_burst", "full", 4, 0xfbe1e562f4d00c49),
    ("dc_burst", "full", 5, 0x9a30dbde93b33c89),
    ("dc_burst", "full", 6, 0xa54e3344eb8f9bfc),
    ("dc_burst", "full", 7, 0x570e1264cc4ab8c0),
    ("dc_burst", "full", 8, 0x38ce322fb6e30dc9),
    ("dc_burst", "full", 9, 0xff65cc95ed27f89a),
    ("dc_burst", "full", 10, 0xfbeb19623062ad1e),
    ("dc_burst", "full", 11, 0x705a92797c0aa575),
    ("dc_burst", "full", 12, 0xe098b389a47113de),
    ("dc_burst", "full", 13, 0x4167c64db34c10e3),
    ("dc_burst", "full", 14, 0x9062a3e0838f0ce7),
    ("dc_burst", "full", 15, 0xa7c98822307fbca3),
    ("dc_burst", "full", 16, 0xb57684796e6fe195),
    ("dc_burst", "full", 17, 0x38d5140615144ca9),
    ("dc_burst", "full", 18, 0x04c45d92de8b88eb),
    ("dc_burst", "full", 19, 0x83296d93f0870c22),
    ("dc_burst", "full", 20, 0x1fbc3145ea9c3ecb),
    ("dc_burst", "full", 104729, 0xf3ba13a722c93c8f),
    ("fleet_frames", "tiny", 1, 0x9f58f18ef6766f4b),
    ("fleet_frames", "full", 0, 0x8f268fc5593c7552),
    ("fleet_frames", "full", 1, 0xd67221c5e2042798),
    ("fleet_frames", "full", 2, 0x5328599cadcf9c50),
    ("fleet_frames", "full", 3, 0xc667f69bc2b58522),
    ("fleet_frames", "full", 4, 0x0d7c1a42547bea89),
    ("fleet_frames", "full", 5, 0xbbe78c9d1e6a0cb4),
    ("fleet_frames", "full", 6, 0xf9682dd2258d88a6),
    ("fleet_frames", "full", 7, 0xd954e2798fffb5e3),
    ("fleet_frames", "full", 8, 0x23f2d797cab4ca3f),
    ("fleet_frames", "full", 9, 0xb32e7e63191b7633),
    ("fleet_frames", "full", 10, 0x8728be550f06148f),
    ("fleet_frames", "full", 11, 0x182558efbb92fd98),
    ("fleet_frames", "full", 12, 0xa2d7232f1b2a15fa),
    ("fleet_frames", "full", 13, 0xacfe2904ae138045),
    ("fleet_frames", "full", 14, 0xd88dac1ca5a811d3),
    ("fleet_frames", "full", 15, 0x85e533c5796a9b17),
    ("fleet_frames", "full", 16, 0x8deb7b2c5ebf9408),
    ("fleet_frames", "full", 17, 0xf430eaf5c7feb5de),
    ("fleet_frames", "full", 18, 0x3e43e63cbd299324),
    ("fleet_frames", "full", 19, 0x1e876235292f718e),
    ("fleet_frames", "full", 20, 0xe07e320e7a507299),
    ("fleet_frames", "full", 104729, 0x9e0f42b350c2d387),
    ("fleet_reactive", "tiny", 1, 0xeb7315f267367575),
    ("fleet_reactive", "full", 0, 0xb4b09a20261004e9),
    ("fleet_reactive", "full", 1, 0xa42d448ae53e058a),
    ("fleet_reactive", "full", 2, 0x63b4abef42b48f28),
    ("fleet_reactive", "full", 3, 0xb92e36363fe281e4),
    ("fleet_reactive", "full", 4, 0x645b03a32c6c1e4e),
    ("fleet_reactive", "full", 5, 0x6cb2f26b630f7049),
    ("fleet_reactive", "full", 6, 0x732ffff8a7a9f733),
    ("fleet_reactive", "full", 7, 0xc67f795da49b9405),
    ("fleet_reactive", "full", 8, 0x919df41138100a00),
    ("fleet_reactive", "full", 9, 0xef23447ce66da6e3),
    ("fleet_reactive", "full", 10, 0xf3f8643563847b0a),
    ("fleet_reactive", "full", 11, 0x2007a52862174f6d),
    ("fleet_reactive", "full", 12, 0x06d6f1b656bbdb90),
    ("fleet_reactive", "full", 13, 0x6bf0c598bb78584d),
    ("fleet_reactive", "full", 14, 0xa351546d81c59b29),
    ("fleet_reactive", "full", 15, 0x8ab6b1c0c3b8f20d),
    ("fleet_reactive", "full", 16, 0x8ecd31216a7a09d8),
    ("fleet_reactive", "full", 17, 0x43f8444b6de51145),
    ("fleet_reactive", "full", 18, 0xd4115a826713cb2f),
    ("fleet_reactive", "full", 19, 0xfb04e98292952b06),
    ("fleet_reactive", "full", 20, 0x10515fbc24cee3bc),
    ("fleet_reactive", "full", 104729, 0xc95ccb571728561e),
];

pub fn pinned(workload: &str, size: &str, seed: u64) -> Option<u64> {
    PINNED
        .iter()
        .find(|(w, z, s, _)| *w == workload && *z == size && *s == seed)
        .map(|(_, _, _, d)| *d)
}
