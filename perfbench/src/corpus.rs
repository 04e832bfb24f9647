//! Seeded `.fnet` corpora. Instances come from the repository's generator
//! families; the benchmark serializes them to `.fnet` text, and the program
//! under test only ever sees that text.

use flowrel_core::fnet;
use workloads::generators::Instance;

/// SplitMix64: a small deterministic stream derived from the workload seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5f0e_1a7c_3d2b_9e41)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The instance as `.fnet` text, demand line included.
pub fn text(inst: &Instance) -> String {
    let demand = flowrel_core::FlowDemand::new(inst.source, inst.sink, inst.demand);
    fnet::serialize(&inst.net, Some(demand))
}

/// Redraws the failure probability of every fallible binary link on the
/// dyadic grid `{1..24}/64` the generators use. Perfect links (`p = 0`) and
/// capacity spectra are kept, so the structure, and with it the work of the
/// exact engines, stays that of the generator family.
pub fn redraw_probabilities(text: &str, rng: &mut Rng) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() == 5 && f[0] == "edge" && f[4].parse::<f64>().is_ok_and(|p| p > 0.0) {
            let p = (1 + rng.below(24)) as f64 / 64.0;
            out.push_str(&format!("edge {} {} {} {p}\n", f[1], f[2], f[3]));
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redraw_keeps_structure_and_perfect_links() {
        let src = "undirected\nnodes 3\nedge 0 1 2 0.25\nedge 1 2 99 0\nspectrum 0 2 0:0.25 2:0.75\ndemand 0 2 1\n";
        let a = redraw_probabilities(src, &mut Rng::new(1));
        let b = redraw_probabilities(src, &mut Rng::new(1));
        assert_eq!(a, b, "same seed, same text");
        let lines: Vec<&str> = a.lines().collect();
        assert!(lines[2].starts_with("edge 0 1 2 "));
        assert_eq!(lines[3], "edge 1 2 99 0");
        assert_eq!(lines[4], "spectrum 0 2 0:0.25 2:0.75");
        let parsed = fnet::parse(&a).expect("redrawn text parses");
        assert_eq!(parsed.net.edge_count(), 3);
    }
}
