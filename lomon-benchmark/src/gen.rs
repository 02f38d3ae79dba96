//! Seeded inputs and their ground truth.
//!
//! Every corpus is a pure function of the seed. The expected outcome of
//! each unit (file, stream or episode) is written down while the faults
//! are planted — which property breaks, at which event — never by
//! running lomon.

use std::fmt::Write as _;

use lomon_tlm::FaultPlan;
use lomon_trace::SimTime;

/// SplitMix64: small, fast and good enough to draw workloads.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6c6f_6d6f_6e62_656e)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.between(0, i as u64) as usize);
        }
    }
}

/// What a unit's verdict on one property must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// No planted fault concerns the property: it stays "presumably
    /// satisfied" (every unit ends between episodes, so nothing is open).
    Holds,
    /// A planted fault breaks the property. For an antecedent fault the
    /// deciding event is the `start`/`go` it precedes, at `at_ps`.
    Violated { at_ps: Option<u64> },
}

impl Expect {
    /// Whether property `k`'s reported verdict (and, for an antecedent
    /// fault, the deciding `trigger` event its diagnostic names) is this
    /// expectation.
    pub fn check(
        self,
        k: usize,
        verdict: &str,
        diagnostic: &str,
        trigger: &str,
    ) -> Result<(), String> {
        match self {
            Expect::Holds if verdict == "presumably satisfied" => Ok(()),
            Expect::Violated { at_ps } if verdict == "violated" => match at_ps {
                Some(ps) => {
                    let expected = format!("`{trigger}` at {}:", SimTime::from_ps(ps));
                    if diagnostic.starts_with(&expected) {
                        Ok(())
                    } else {
                        Err(format!(
                            "property {k}: diagnostic `{diagnostic}`, expected `{expected}`"
                        ))
                    }
                }
                None => Ok(()),
            },
            _ => Err(format!(
                "property {k}: verdict `{verdict}`, expected {self:?}"
            )),
        }
    }
}

/// The expected outcome of one unit.
#[derive(Debug, Clone)]
pub struct Truth {
    /// Events in the unit (every one is ingested: none follows a final
    /// verdict on every property).
    pub events: u64,
    /// One entry per property, in rulebook order.
    pub verdicts: Vec<Expect>,
}

impl Truth {
    pub fn ok(&self) -> bool {
        self.verdicts.iter().all(|v| *v == Expect::Holds)
    }

    /// The ground truth of `unit` as one NDJSON line.
    pub fn to_json(&self, unit: &str) -> String {
        let verdicts: Vec<String> = self
            .verdicts
            .iter()
            .map(|v| match v {
                Expect::Holds => "{\"verdict\": \"presumably satisfied\"}".to_owned(),
                Expect::Violated { at_ps: Some(ps) } => {
                    format!("{{\"verdict\": \"violated\", \"deciding_event_ps\": {ps}}}")
                }
                Expect::Violated { at_ps: None } => "{\"verdict\": \"violated\"}".to_owned(),
            })
            .collect();
        format!(
            "{{\"unit\": \"{unit}\", \"events\": {}, \"properties\": [{}]}}",
            self.events,
            verdicts.join(", ")
        )
    }
}

/// The two properties of the IPU rulebook (`tests/fixtures/ipu.rules`):
/// Example 2's loose ordering and the interrupt deadline. Kept here so the
/// benchmark's workload does not move when that fixture is edited.
pub const IPU_RULES: [&str; 2] = [
    "all{set_imgAddr, set_glAddr, set_glSize} << start repeated",
    "start => out:set_irq within 1 ms",
];

const CONFIG_WRITES: [&str; 3] = ["set_imgAddr", "set_glAddr", "set_glSize"];

/// One fault planted in an IPU episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IpuFault {
    None,
    /// One configuration write is left out: Example 2 breaks at `start`.
    SkipWrite,
    /// The interrupt comes more than 1 ms after `start`: the deadline
    /// property breaks.
    LateIrq,
}

/// One interface event, with its time in picoseconds.
#[derive(Debug, Clone, Copy)]
pub struct IpuEvent {
    pub ps: u64,
    pub out: bool,
    pub name: &'static str,
}

/// Append one IPU episode after time `*t`: the three configuration writes
/// in a drawn order, `start`, `reads` gallery reads (names no property
/// subscribes to) and the answering `set_irq`. Returns the time of
/// `start`.
fn ipu_episode(
    rng: &mut Rng,
    t: &mut u64,
    reads: u32,
    fault: IpuFault,
    out: &mut Vec<IpuEvent>,
) -> u64 {
    let mut writes = CONFIG_WRITES;
    rng.shuffle(&mut writes);
    let kept = if fault == IpuFault::SkipWrite { 2 } else { 3 };
    *t += rng.between(20_000, 200_000);
    for name in &writes[..kept] {
        *t += rng.between(30_000, 120_000);
        out.push(IpuEvent {
            ps: *t,
            out: false,
            name,
        });
    }
    *t += rng.between(30_000, 120_000);
    let start = *t;
    out.push(IpuEvent {
        ps: start,
        out: false,
        name: "start",
    });
    for _ in 0..reads {
        *t += rng.between(100_000, 400_000);
        out.push(IpuEvent {
            ps: *t,
            out: false,
            name: "read_img",
        });
    }
    *t += rng.between(50_000, 300_000);
    if fault == IpuFault::LateIrq {
        *t = start + 1_000_000_000 + rng.between(1_000_000, 100_000_000);
    }
    out.push(IpuEvent {
        ps: *t,
        out: true,
        name: "set_irq",
    });
    start
}

/// IPU episodes with at most one planted fault of each kind, each in an
/// episode of the last fifth (so every property still sees most of the
/// unit before it retires). Returns the events and their truth.
fn ipu_unit(
    rng: &mut Rng,
    episodes: u32,
    reads: u32,
    skip_write: bool,
    late_irq: bool,
) -> (Vec<IpuEvent>, Truth) {
    let late = |rng: &mut Rng| rng.between(u64::from(episodes) * 4 / 5, u64::from(episodes) - 1);
    let skip_at = skip_write.then(|| late(rng));
    let mut late_at = late_irq.then(|| late(rng));
    if late_at.is_some() && late_at == skip_at {
        late_at = late_at.map(|e| if e > 0 { e - 1 } else { e + 1 });
    }
    let mut events = Vec::with_capacity(episodes as usize * (5 + reads as usize));
    let mut t = 0u64;
    let mut skipped_start = None;
    for e in 0..u64::from(episodes) {
        let fault = if Some(e) == skip_at {
            IpuFault::SkipWrite
        } else if Some(e) == late_at {
            IpuFault::LateIrq
        } else {
            IpuFault::None
        };
        let start = ipu_episode(rng, &mut t, reads, fault, &mut events);
        if fault == IpuFault::SkipWrite {
            skipped_start = Some(start);
        }
    }
    let verdicts = vec![
        match skipped_start {
            Some(at) => Expect::Violated { at_ps: Some(at) },
            None => Expect::Holds,
        },
        if late_at.is_some() {
            Expect::Violated { at_ps: None }
        } else {
            Expect::Holds
        },
    ];
    let truth = Truth {
        events: events.len() as u64,
        verdicts,
    };
    (events, truth)
}

/// The `check-ipu` corpus: two trace files of `episodes` IPU episodes each
/// (six gallery reads per episode, 11 events). The first is clean; the
/// second carries one skipped configuration write and one late interrupt.
pub fn check_files(seed: u64, episodes: u32) -> Vec<(Vec<u8>, Truth)> {
    let mut rng = Rng::new(seed);
    [(false, false), (true, true)]
        .into_iter()
        .map(|(skip, late)| {
            let (events, truth) = ipu_unit(&mut rng, episodes, 6, skip, late);
            let mut text = String::with_capacity(events.len() * 26);
            for ev in &events {
                let dir = if ev.out { "out" } else { "in" };
                let _ = writeln!(text, "{}ps {dir} {}", ev.ps, ev.name);
            }
            (text.into_bytes(), truth)
        })
        .collect()
}

/// The `serve-streams` corpus: `count` NDJSON streams of `episodes` IPU
/// episodes (no gallery reads: five events, all named by the rulebook),
/// each closed by an `end` frame. Every fourth stream carries one planted
/// fault, alternately a skipped write and a late interrupt.
pub fn serve_streams(seed: u64, count: usize, episodes: u32) -> Vec<(Vec<u8>, Truth)> {
    let mut rng = Rng::new(seed ^ 0x5e27e);
    (0..count)
        .map(|k| {
            let faulted = k % 4 == 3;
            let skip = faulted && (k / 4) % 2 == 0;
            let (events, truth) = ipu_unit(&mut rng, episodes, 0, skip, faulted && !skip);
            let mut text = String::with_capacity(events.len() * 56);
            for ev in &events {
                let dir = if ev.out { "out" } else { "in" };
                let _ = writeln!(
                    text,
                    "{{\"time\": \"{}ps\", \"dir\": \"{dir}\", \"name\": \"{}\"}}",
                    ev.ps, ev.name
                );
            }
            let end = events.last().map_or(0, |ev| ev.ps) + 1000;
            let _ = writeln!(text, "{{\"end\": \"{end}ps\"}}");
            (text.into_bytes(), truth)
        })
        .collect()
}

/// The shared alphabet of the fan-out rulebook: two phases of four names
/// each, a trigger, and four canary names that one property each
/// subscribes to.
const PHASE_A: [&str; 4] = ["a0", "a1", "a2", "a3"];
const PHASE_B: [&str; 4] = ["b0", "b1", "b2", "b3"];
const CANARIES: [&str; 4] = ["k0", "k1", "k2", "k3"];

/// Properties in the fan-out rulebook.
pub const FANOUT_PROPERTIES: usize = 48;

/// The `watch-fanout` rulebook: 44 structurally distinct `repeated`
/// antecedent properties over one shared alphabet (plain and `any`
/// fragments, two-fragment loose orderings, ranges), and 4 canary
/// properties that each also wait for their own canary name. Fixed: it
/// does not depend on the run's seed, so set-up time compares across
/// seeds. Property `44 + j` holds canary `k{j}`.
pub fn fanout_rulebook() -> Vec<String> {
    let mut rng = Rng::new(0x00fa_0017);
    let mut pick = |pool: &[&'static str], lo: u64, hi: u64| {
        let mut names = pool.to_vec();
        rng.shuffle(&mut names);
        names.truncate(rng.between(lo, hi) as usize);
        names.sort_unstable();
        names
    };
    let both: Vec<&str> = PHASE_A.iter().chain(&PHASE_B).copied().collect();
    let mut rules: Vec<String> = Vec::new();
    let mut form = 0usize;
    while rules.len() < FANOUT_PROPERTIES - CANARIES.len() {
        let text = match form % 5 {
            0 => format!("all{{{}}} << go repeated", pick(&both, 2, 5).join(", ")),
            1 => format!("any{{{}}} << go repeated", pick(&both, 2, 4).join(", ")),
            2 => format!(
                "all{{{}}} < all{{{}}} << go repeated",
                pick(&PHASE_A, 1, 3).join(", "),
                pick(&PHASE_B, 1, 3).join(", ")
            ),
            3 => format!(
                "any{{{}}} < all{{{}}} << go repeated",
                pick(&PHASE_A, 2, 3).join(", "),
                pick(&PHASE_B, 1, 2).join(", ")
            ),
            _ => {
                let names = pick(&both, 2, 3);
                format!(
                    "all{{{}[1,2], {}}} << go repeated",
                    names[0],
                    names[1..].join(", ")
                )
            }
        };
        form += 1;
        if !rules.contains(&text) {
            rules.push(text);
        }
    }
    for canary in CANARIES {
        rules.push(format!(
            "all{{{}}} < all{{{}, {canary}}} << go repeated",
            pick(&PHASE_A, 1, 2).join(", "),
            pick(&PHASE_B, 1, 2).join(", ")
        ));
    }
    rules
}

/// One `watch-fanout` stream: `episodes` rounds of the phase-A names in a
/// drawn order, then the phase-B and canary names in a drawn order, then
/// `go` — 13 events that satisfy every property. `violate` lists the
/// canaries left out of one late episode each; that canary's property
/// (and only it) breaks at that episode's `go`.
pub fn fanout_stream(rng: &mut Rng, episodes: u32, violate: &[usize]) -> (Vec<u8>, Truth) {
    let mut drop_at = vec![None; CANARIES.len()];
    for &k in violate {
        drop_at[k] = Some(rng.between(u64::from(episodes) * 4 / 5, u64::from(episodes) - 1));
    }
    let mut verdicts = vec![Expect::Holds; FANOUT_PROPERTIES];
    let mut text = String::with_capacity(episodes as usize * 13 * 14);
    let (mut events, mut ns) = (0u64, 0u64);
    for e in 0..u64::from(episodes) {
        let mut a = PHASE_A;
        rng.shuffle(&mut a);
        let mut b: Vec<&str> = PHASE_B.to_vec();
        for (k, canary) in CANARIES.iter().enumerate() {
            if drop_at[k] != Some(e) {
                b.push(canary);
            }
        }
        rng.shuffle(&mut b);
        for name in a.iter().chain(&b).chain(&["go"]) {
            ns += rng.between(10, 73);
            let _ = writeln!(text, "{ns}ns in {name}");
            events += 1;
        }
        for (k, at) in drop_at.iter().enumerate() {
            if *at == Some(e) {
                let at_ps = SimTime::from_ns(ns).as_ps();
                verdicts[FANOUT_PROPERTIES - CANARIES.len() + k] =
                    Expect::Violated { at_ps: Some(at_ps) };
            }
        }
    }
    (text.into_bytes(), Truth { events, verdicts })
}

/// The case-study property a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Nominal episode: both properties hold.
    None,
    /// `example2`, the configuration loose ordering.
    Example2,
    /// `example3`, the timed gallery-read implication.
    Example3,
}

/// One `platform-online` episode: a scenario seed and a fault plan.
#[derive(Debug, Clone, Copy)]
pub struct Episode {
    pub seed: u64,
    pub fault: FaultPlan,
    pub target: Target,
}

impl Episode {
    /// The episode's plan and expected outcome as one NDJSON line.
    pub fn to_json(self) -> String {
        let violates = match self.target {
            Target::None => "nothing",
            Target::Example2 => "example2",
            Target::Example3 => "example3",
        };
        format!(
            "{{\"seed\": {}, \"fault\": \"{:?}\", \"violates\": \"{violates}\"}}",
            self.seed, self.fault
        )
    }
}

/// A round of platform episodes with a fixed make-up — half nominal, and
/// each of the seven fault switches equally often — in a drawn order with
/// drawn scenario seeds and fault parameters. The magnitudes are those
/// `lomon smc` draws.
pub fn platform_round(rng: &mut Rng, per_fault: usize) -> Vec<Episode> {
    let mut round = Vec::new();
    for kind in 0..7u32 {
        for _ in 0..per_fault {
            let mut fault = FaultPlan::default();
            let target = match kind {
                0 => {
                    fault.skip_register = Some(rng.between(0, 2) as usize);
                    Target::Example2
                }
                1 => {
                    fault.early_start = true;
                    Target::Example2
                }
                2 => {
                    fault.double_start = true;
                    Target::Example2
                }
                3 => {
                    fault.drop_irq = true;
                    Target::Example3
                }
                4 => {
                    fault.early_irq = true;
                    Target::Example3
                }
                5 => {
                    fault.extra_reads = rng.between(1, 3) as u32;
                    Target::Example3
                }
                _ => {
                    fault.slowdown = 50;
                    Target::Example3
                }
            };
            round.push(Episode {
                seed: 0,
                fault,
                target,
            });
        }
    }
    let nominal = round.len();
    round.extend((0..nominal).map(|_| Episode {
        seed: 0,
        fault: FaultPlan::default(),
        target: Target::None,
    }));
    rng.shuffle(&mut round);
    for episode in &mut round {
        episode.seed = rng.next_u64();
    }
    round
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = check_files(7, 50);
        let b = check_files(7, 50);
        assert_eq!(a[1].0, b[1].0);
        assert_ne!(a[1].0, check_files(8, 50)[1].0);
    }

    #[test]
    fn truth_counts_events_and_faults() {
        let files = check_files(3, 100);
        assert!(files[0].1.ok());
        // One write left out: 100 episodes x 11 events, minus one.
        assert_eq!(files[1].1.events, 1099);
        assert!(matches!(
            files[1].1.verdicts[0],
            Expect::Violated { at_ps: Some(_) }
        ));
    }

    #[test]
    fn fanout_rulebook_is_distinct_and_fixed() {
        let rules = fanout_rulebook();
        assert_eq!(rules.len(), FANOUT_PROPERTIES);
        for (i, r) in rules.iter().enumerate() {
            assert!(!rules[..i].contains(r), "duplicate {r}");
        }
        assert_eq!(rules, fanout_rulebook());
    }

    #[test]
    fn platform_round_is_half_nominal() {
        let round = platform_round(&mut Rng::new(1), 2);
        assert_eq!(round.len(), 28);
        assert_eq!(
            round.iter().filter(|e| e.target == Target::None).count(),
            14
        );
    }
}
