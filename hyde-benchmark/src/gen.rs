//! Seeded input generation owned by the benchmark.
//!
//! Every workload input is a pure function of `--seed`: one SplitMix64
//! stream per purpose (circuit order, PLA pool, job mix, arrival
//! schedule, mutants), so consuming more numbers for one purpose never
//! shifts another. The program under test only ever sees the generated
//! inputs.

use hyde_logic::TruthTable;

/// SplitMix64 (Steele, Lea and Flood): a 64-bit counter run through a
/// finalizing mix. Tiny, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

/// Stream tags: one independent generator per purpose.
pub mod stream {
    /// Order in which circuits and CEC calls run within a pass.
    pub const ORDER: u64 = 1;
    /// The `serve_open` PLA pool: its structure under a fixed seed, each
    /// entry's input permutation and phase under the workload seed.
    pub const POOL: u64 = 2;
    /// Order of the `serve_open` job mix.
    pub const MIX: u64 = 3;
    /// Poisson arrival times of `serve_open`.
    pub const ARRIVALS: u64 = 4;
    /// Row and literal choice of the CEC mutants.
    pub const MUTANTS: u64 = 5;
}

impl SplitMix64 {
    /// The generator for one purpose under one workload seed.
    pub fn stream(seed: u64, tag: u64) -> Self {
        let mut root = SplitMix64(seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03));
        SplitMix64(root.next_u64())
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (multiply-high reduction).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One function of the `serve_open` pool, as the PLA text a client
/// submits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolFn {
    /// Job name (`pla<rank>`), so a result's BLIF `.model` line depends
    /// on the function, not on the job id it was submitted under.
    pub name: String,
    /// PLA source text.
    pub pla: String,
}

impl PoolFn {
    /// The output truth tables the PLA describes.
    pub fn tables(&self) -> Vec<TruthTable> {
        hyde_logic::pla::Pla::parse(&self.pla)
            .expect("generated PLA parses")
            .output_tables()
    }
}

/// Shape of pool entry `rank`: 6–12 inputs and 1–8 outputs.
fn pool_shape(rank: usize) -> (usize, usize) {
    (6 + (rank * 3) % 7, 1 + (rank * 5) % 8)
}

/// Seed of the pool's structure, which every workload seed shares.
const POOL_STRUCTURE: u64 = 0xDA98;

/// `count` multi-output functions as PLA text. The structure of entry
/// `rank` is fixed: each output an OR of 2–6 cubes of 2–6 literals,
/// drawn once from one stream (an output that comes out constant is
/// redrawn). The seed draws each entry's surface, a permutation and a
/// phase of its inputs, so another seed changes every PLA but keeps each
/// entry's NPN class, and with it the work the mapper does: the offered
/// load is the same under every seed.
pub fn pla_pool(seed: u64, count: usize) -> Vec<PoolFn> {
    let mut structure = SplitMix64::stream(POOL_STRUCTURE, stream::POOL);
    let mut surface = SplitMix64::stream(seed, stream::POOL);
    (0..count)
        .map(|rank| {
            let (inputs, outputs) = pool_shape(rank);
            let mut perm: Vec<usize> = (0..inputs).collect();
            surface.shuffle(&mut perm);
            let phase: Vec<bool> = (0..inputs).map(|_| surface.below(2) == 1).collect();
            let mut rows = String::new();
            let mut nrows = 0usize;
            for o in 0..outputs {
                let cubes = loop {
                    let cubes: Vec<String> = (0..2 + structure.below(5))
                        .map(|_| random_cube(&mut structure, inputs))
                        .collect();
                    if !is_constant(inputs, &cubes) {
                        break cubes;
                    }
                };
                for cube in cubes {
                    let mut moved = vec!['-'; inputs];
                    for (v, ch) in cube.chars().enumerate() {
                        moved[perm[v]] = match (ch, phase[v]) {
                            ('0', true) => '1',
                            ('1', true) => '0',
                            (ch, _) => ch,
                        };
                    }
                    let moved: String = moved.into_iter().collect();
                    let outs: String = (0..outputs)
                        .map(|j| if j == o { '1' } else { '0' })
                        .collect();
                    rows.push_str(&format!("{moved} {outs}\n"));
                    nrows += 1;
                }
            }
            PoolFn {
                name: format!("pla{rank}"),
                pla: format!(".i {inputs}\n.o {outputs}\n.p {nrows}\n{rows}.e\n"),
            }
        })
        .collect()
}

fn random_cube(rng: &mut SplitMix64, inputs: usize) -> String {
    let mut vars: Vec<usize> = (0..inputs).collect();
    rng.shuffle(&mut vars);
    let literals = 2 + rng.below(inputs.min(6) - 1);
    let mut cube = vec!['-'; inputs];
    for &v in &vars[..literals] {
        cube[v] = if rng.below(2) == 0 { '0' } else { '1' };
    }
    cube.into_iter().collect()
}

fn is_constant(inputs: usize, cubes: &[String]) -> bool {
    let covers = |m: u32| {
        cubes.iter().any(|c| {
            c.chars().enumerate().all(|(v, ch)| match ch {
                '0' => m >> v & 1 == 0,
                '1' => m >> v & 1 == 1,
                _ => true,
            })
        })
    };
    let first = covers(0);
    (1..1u32 << inputs).all(|m| covers(m) == first)
}

/// Splits `count` into whole shares proportional to `weights`
/// (largest remainder first).
fn quotas(count: usize, weights: &[f64]) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * count as f64).collect();
    let mut shares: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = count - shares.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        shares[i] += 1;
    }
    shares
}

/// What one `serve_open` job maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Spec {
    /// Pool function by rank (`kind:pla`).
    Pla(usize),
    /// Small-suite circuit by index (`kind:suite`).
    Suite(usize),
}

/// `count` job specs in seeded order. A fifth are `kind:suite` jobs,
/// spread evenly over `suite` circuits; the rest are `kind:pla` jobs
/// whose per-rank counts follow Zipf(s = 1) over a pool of `pool` (rank
/// `r` has weight `1 / (r + 1)`). The counts are fixed and only the order
/// is drawn, so every seed offers the same work.
pub fn job_mix(rng: &mut SplitMix64, count: usize, pool: usize, suite: usize) -> Vec<Spec> {
    let suite_jobs = (count as f64 / 5.0).round() as usize;
    let zipf: Vec<f64> = (1..=pool).map(|r| 1.0 / r as f64).collect();
    let mut specs: Vec<Spec> = quotas(suite_jobs, &vec![1.0; suite])
        .into_iter()
        .enumerate()
        .flat_map(|(i, n)| std::iter::repeat_n(Spec::Suite(i), n))
        .chain(
            quotas(count - suite_jobs, &zipf)
                .into_iter()
                .enumerate()
                .flat_map(|(r, n)| std::iter::repeat_n(Spec::Pla(r), n)),
        )
        .collect();
    rng.shuffle(&mut specs);
    specs
}

/// Arrival times (seconds) of a Poisson process of `rate` per second
/// over `[0, duration)`, conditioned on its expected count: that many
/// uniform times, sorted. Fixing the count keeps the offered load equal
/// across seeds; the gaps stay exponential.
pub fn poisson_arrivals(rng: &mut SplitMix64, rate: f64, duration: f64) -> Vec<f64> {
    let n = (rate * duration).round() as usize;
    let mut times: Vec<f64> = (0..n).map(|_| rng.unit() * duration).collect();
    times.sort_by(f64::total_cmp);
    times
}

/// A seeded mutant of a BLIF netlist: one literal of one `.names` row
/// flipped (`0` ↔ `1`). Returns the mutated text and the name of the
/// node whose cover changed, or `None` when no row has a literal.
pub fn flip_row(blif: &str, rng: &mut SplitMix64) -> Option<(String, String)> {
    let lines: Vec<&str> = blif.lines().collect();
    // (line index, node name) of every row with at least one 0/1 literal.
    let mut rows: Vec<(usize, &str)> = Vec::new();
    let mut node: Option<&str> = None;
    for (i, line) in lines.iter().enumerate() {
        if line.starts_with(".names") {
            let signals: Vec<&str> = line.split_whitespace().skip(1).collect();
            // Constant nodes (no fanins) have no literal to flip.
            node = (signals.len() > 1).then(|| signals[signals.len() - 1]);
        } else if line.starts_with('.') {
            node = None;
        } else if let Some(n) = node {
            let inputs = line.split_whitespace().next().unwrap_or("");
            if inputs.contains(['0', '1']) {
                rows.push((i, n));
            }
        }
    }
    if rows.is_empty() {
        return None;
    }
    let (row, name) = rows[rng.below(rows.len())];
    let (inputs, rest) = lines[row].split_once(' ')?;
    let positions: Vec<usize> = inputs
        .char_indices()
        .filter(|(_, c)| matches!(c, '0' | '1'))
        .map(|(i, _)| i)
        .collect();
    let at = positions[rng.below(positions.len())];
    let flipped: String = inputs
        .char_indices()
        .map(|(i, c)| match (i == at, c) {
            (true, '0') => '1',
            (true, '1') => '0',
            (_, c) => c,
        })
        .collect();
    let mut out = String::with_capacity(blif.len());
    for (i, line) in lines.iter().enumerate() {
        if i == row {
            out.push_str(&flipped);
            out.push(' ');
            out.push_str(rest);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    Some((out, name.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(pla_pool(1998, 48), pla_pool(1998, 48));
        let schedule = |seed| {
            let mut rng = SplitMix64::stream(seed, stream::ARRIVALS);
            poisson_arrivals(&mut rng, 60.0, 20.0)
        };
        assert_eq!(schedule(1998), schedule(1998));
        let mix = |seed| job_mix(&mut SplitMix64::stream(seed, stream::MIX), 500, 48, 8);
        assert_eq!(mix(1998), mix(1998));
    }

    #[test]
    fn another_seed_differs() {
        assert_ne!(pla_pool(1998, 48), pla_pool(1999, 48));
        let mut a = SplitMix64::stream(1998, stream::ARRIVALS);
        let mut b = SplitMix64::stream(1999, stream::ARRIVALS);
        assert_ne!(
            poisson_arrivals(&mut a, 60.0, 20.0),
            poisson_arrivals(&mut b, 60.0, 20.0)
        );
        // Streams of one seed are independent of each other too.
        assert_ne!(
            SplitMix64::stream(1998, stream::POOL).next_u64(),
            SplitMix64::stream(1998, stream::MIX).next_u64()
        );
    }

    #[test]
    fn no_generated_output_is_constant() {
        for seed in [1, 1998, 0xC0FFEE] {
            for f in pla_pool(seed, 48) {
                let tables = f.tables();
                assert!((6..=12).contains(&tables[0].vars()), "{}", f.name);
                assert!((1..=8).contains(&tables.len()), "{}", f.name);
                for t in tables {
                    assert!(t.is_const().is_none(), "{} has a constant output", f.name);
                }
            }
        }
    }

    #[test]
    fn every_mutant_parses_and_changes_one_row() {
        let session = hyde_map::Session::new(5, hyde_map::FlowKind::hyde(0xDA98));
        for c in hyde_circuits::suite_small() {
            let blif = session
                .run(&hyde_map::Job::new(&c.name, c.outputs.clone()))
                .expect("maps")
                .blif();
            for seed in 0..8 {
                let mut rng = SplitMix64::stream(seed, stream::MUTANTS);
                let (mutant, node) = flip_row(&blif, &mut rng).expect("has rows");
                let net = hyde_logic::blif::parse(&mutant).expect("mutant parses");
                assert_eq!(net.outputs().len(), c.outputs.len());
                assert!(mutant.contains(&format!(" {node}\n")), "{node}");
                let changed = blif
                    .lines()
                    .zip(mutant.lines())
                    .filter(|(a, b)| a != b)
                    .count();
                assert_eq!(changed, 1, "{}: exactly one row differs", c.name);
            }
        }
    }

    #[test]
    fn job_mix_follows_the_fixed_shares() {
        let mut rng = SplitMix64::stream(7, stream::MIX);
        let mix = job_mix(&mut rng, 1000, 48, 8);
        let count = |s: Spec| mix.iter().filter(|&&m| m == s).count();
        assert_eq!(mix.len(), 1000);
        assert_eq!((0..8).map(|i| count(Spec::Suite(i))).sum::<usize>(), 200);
        assert!((0..8).all(|i| count(Spec::Suite(i)) == 25));
        // Rank 0 carries 1 / H(48) ≈ 22.4% of the 800 PLA jobs.
        assert_eq!(count(Spec::Pla(0)), 179);
        assert!(count(Spec::Pla(0)) > count(Spec::Pla(1)));
        assert!(count(Spec::Pla(1)) > count(Spec::Pla(9)));
        let mut other = SplitMix64::stream(8, stream::MIX);
        let reordered = job_mix(&mut other, 1000, 48, 8);
        assert_ne!(mix, reordered);
        let mut a = mix.clone();
        let mut b = reordered;
        a.sort();
        b.sort();
        assert_eq!(a, b, "seeds change the order, not the shares");
    }

    #[test]
    fn poisson_rate_is_respected() {
        let mut rng = SplitMix64::stream(3, stream::ARRIVALS);
        let arrivals = poisson_arrivals(&mut rng, 60.0, 100.0);
        assert_eq!(arrivals.len(), 6000);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(arrivals.iter().all(|&t| (0.0..100.0).contains(&t)));
        // Exponential gaps: about 1/e of them exceed the mean gap.
        let long = arrivals
            .windows(2)
            .filter(|w| w[1] - w[0] > 1.0 / 60.0)
            .count();
        assert!((2000..2400).contains(&long), "{long}");
    }

    #[test]
    fn seeds_keep_each_pool_entry_in_its_npn_class() {
        let (a, b) = (pla_pool(1, 8), pla_pool(2, 8));
        for (fa, fb) in a.iter().zip(&b) {
            let ones = |f: &PoolFn| {
                f.tables()
                    .iter()
                    .map(|t| t.count_ones())
                    .collect::<Vec<_>>()
            };
            // Input permutation and phase keep every output's on-set size.
            assert_eq!(ones(fa), ones(fb), "{}", fa.name);
        }
    }
}
