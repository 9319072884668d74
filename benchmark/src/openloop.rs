//! Open-loop load: a seeded Poisson arrival schedule, one generating
//! thread that sends each request when it is due whether or not earlier
//! ones finished, and a pool of client threads that carry the (blocking)
//! requests. Latency counts from the **due** instant, so a stall is
//! charged to every request it delays — including the ones the generator
//! itself sent late.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::spec::Better;
use crate::stats::fast_quartile;

/// Service class of an arrival (index into the mix).
pub type Class = usize;

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Scheduled send time, nanoseconds after the run starts.
    pub due_ns: u64,
    pub class: Class,
}

/// splitmix64: the whole generator state is the seed, so equal seeds give
/// equal schedules on every platform.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// A class drawn with probability `mix[class]` (the shares sum to 1).
    pub fn next_class(&mut self, mix: &[f64]) -> Class {
        let u = self.next_unit();
        let mut acc = 0.0;
        mix.iter()
            .position(|share| {
                acc += share;
                u <= acc
            })
            .unwrap_or(mix.len() - 1)
    }
}

/// Poisson arrivals at `rate_qps` for `seconds`, each assigned a class
/// with probability `mix[class]` (the shares must sum to 1).
pub fn poisson_schedule(seed: u64, rate_qps: f64, seconds: f64, mix: &[f64]) -> Vec<Arrival> {
    let mut rng = SplitMix64(seed);
    let mut schedule = Vec::with_capacity((rate_qps * seconds * 1.1) as usize + 1);
    let mut t = 0.0;
    loop {
        t += -rng.next_unit().ln() / rate_qps;
        if t >= seconds {
            return schedule;
        }
        schedule.push(Arrival {
            due_ns: (t * 1e9) as u64,
            class: rng.next_class(mix),
        });
    }
}

/// Slices the saturating pass is cut into; the quartile of the slices on
/// the fast side gives the rate (as for the timed rounds), so
/// interference in most of them moves nothing.
const SATURATION_SLICES: usize = 16;

/// Completions per second when `clients` threads each draw classes from
/// `mix` and issue them back to back for `seconds`: what the service can
/// carry on this box at this moment. The open-loop rate is set as a share
/// of it.
pub fn saturated_rate(
    seed: u64,
    clients: usize,
    seconds: f64,
    mix: &[f64],
    job: impl Fn(&Arrival) + Sync,
) -> f64 {
    let started = Instant::now();
    let slice = Duration::from_secs_f64(seconds / SATURATION_SLICES as f64);
    let mut per_slice = [0.0; SATURATION_SLICES];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1) as u64)
            .map(|client| {
                let job = &job;
                scope.spawn(move || {
                    let mut rng = SplitMix64(seed.wrapping_add(client));
                    let mut done = [0.0; SATURATION_SLICES];
                    loop {
                        let class = rng.next_class(mix);
                        job(&Arrival { due_ns: 0, class });
                        let at = (started.elapsed().as_nanos() / slice.as_nanos().max(1)) as usize;
                        match done.get_mut(at) {
                            Some(n) => *n += 1.0,
                            None => return done,
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            let done = h.join().expect("client thread panicked");
            for (total, n) in per_slice.iter_mut().zip(done) {
                *total += n;
            }
        }
    });
    fast_quartile(&per_slice, Better::Higher) / slice.as_secs_f64()
}

/// One carried request. Times are nanoseconds after the run started.
#[derive(Debug, Clone)]
pub struct Served<T> {
    pub arrival: Arrival,
    /// When the generator actually sent it (≥ `arrival.due_ns`).
    pub sent_ns: u64,
    /// When a client thread picked it up.
    pub start_ns: u64,
    pub end_ns: u64,
    pub out: T,
}

impl<T> Served<T> {
    /// Latency as the user saw it: from the scheduled send instant.
    pub fn latency_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.arrival.due_ns) as f64 / 1e6
    }

    /// How late the generator sent the request.
    pub fn generator_lag_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.arrival.due_ns) as f64 / 1e6
    }
}

pub struct OpenLoopRun<T> {
    /// Every request, in schedule order.
    pub served: Vec<Served<T>>,
    /// Requests sent but not finished when the last one was sent: small
    /// under a sustainable rate, growing with the run under overload.
    pub backlog_at_last_send: usize,
    /// Run start → last completion.
    pub wall_ns: u64,
    pub started: Instant,
}

/// Drive `schedule` through `job` on `clients` threads. The calling
/// thread is the generator.
pub fn run_open_loop<T: Send>(
    schedule: &[Arrival],
    clients: usize,
    job: impl Fn(&Arrival) -> T + Sync,
) -> OpenLoopRun<T> {
    let (tx, rx) = mpsc::channel::<(usize, u64)>();
    let rx = Mutex::new(rx);
    let finished = AtomicUsize::new(0);
    let started = Instant::now();
    let now_ns = || started.elapsed().as_nanos() as u64;
    let mut backlog_at_last_send = 0;

    let mut served: Vec<(usize, Served<T>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // Hold the lock only to receive, never while serving.
                        let next = rx.lock().expect("no client panics holding it").recv();
                        let Ok((index, sent_ns)) = next else { break };
                        let arrival = schedule[index];
                        let start_ns = now_ns();
                        let out = job(&arrival);
                        let end_ns = now_ns();
                        finished.fetch_add(1, Ordering::Relaxed);
                        mine.push((
                            index,
                            Served {
                                arrival,
                                sent_ns,
                                start_ns,
                                end_ns,
                                out,
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();

        for (index, arrival) in schedule.iter().enumerate() {
            let due = Duration::from_nanos(arrival.due_ns);
            if let Some(wait) = due.checked_sub(started.elapsed()) {
                std::thread::sleep(wait);
            }
            tx.send((index, now_ns()))
                .expect("clients outlive the generator");
            if index + 1 == schedule.len() {
                backlog_at_last_send = index + 1 - finished.load(Ordering::Relaxed);
            }
        }
        drop(tx);
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    served.sort_by_key(|(index, _)| *index);
    let served: Vec<Served<T>> = served.into_iter().map(|(_, s)| s).collect();
    let wall_ns = served.iter().map(|s| s.end_ns).max().unwrap_or(0);
    OpenLoopRun {
        served,
        backlog_at_last_send,
        wall_ns,
        started,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: [f64; 3] = [0.6, 0.3, 0.1];

    #[test]
    fn equal_seeds_give_equal_schedules() {
        let a = poisson_schedule(7, 300.0, 2.0, &MIX);
        let b = poisson_schedule(7, 300.0, 2.0, &MIX);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = poisson_schedule(7, 300.0, 2.0, &MIX);
        let b = poisson_schedule(8, 300.0, 2.0, &MIX);
        assert_ne!(a, b);
    }

    #[test]
    fn schedule_has_the_requested_rate_and_mix() {
        let s = poisson_schedule(1, 500.0, 20.0, &MIX);
        let n = s.len() as f64;
        assert!((n - 10_000.0).abs() < 400.0, "{n} arrivals");
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(s.last().unwrap().due_ns < 20_000_000_000);
        for (class, share) in MIX.iter().enumerate() {
            let got = s.iter().filter(|a| a.class == class).count() as f64 / n;
            assert!((got - share).abs() < 0.03, "class {class}: {got}");
        }
    }

    #[test]
    fn saturated_rate_is_what_the_clients_can_carry() {
        // Two clients, 10 ms per request: 200 requests/s, less whatever
        // the sleeps overshoot, give or take one request in a 0.1 s slice.
        let rate = saturated_rate(3, 2, 1.6, &MIX, |_| {
            std::thread::sleep(Duration::from_millis(10));
        });
        assert!((100.0..=220.0).contains(&rate), "{rate}");
    }

    #[test]
    fn latency_counts_from_the_due_time_when_the_generator_runs_late() {
        // Five requests all due at t = 0 on one client, 20 ms of service
        // each: the k-th starts ~20k ms late. Measured from its start it
        // would look like 20 ms; measured from when it was due it is
        // ~20(k+1) ms — the wait the stall imposed.
        let schedule: Vec<Arrival> = (0..5)
            .map(|_| Arrival {
                due_ns: 0,
                class: 0,
            })
            .collect();
        let run = run_open_loop(&schedule, 1, |_| {
            std::thread::sleep(Duration::from_millis(20));
        });
        assert_eq!(run.served.len(), 5);
        let last = &run.served[4];
        assert!(last.latency_ms() >= 100.0, "{}", last.latency_ms());
        let from_start = (last.end_ns - last.start_ns) as f64 / 1e6;
        assert!(from_start < 60.0, "{from_start}");
        assert!(run.backlog_at_last_send >= 3);
    }

    #[test]
    fn a_late_generator_is_reported_and_still_charged() {
        // A request whose due time has already passed when the generator
        // reaches it (the first one blocks the only sender for 30 ms).
        let served = Served {
            arrival: Arrival {
                due_ns: 1_000_000,
                class: 0,
            },
            sent_ns: 31_000_000,
            start_ns: 31_500_000,
            end_ns: 36_000_000,
            out: (),
        };
        assert_eq!(served.generator_lag_ms(), 30.0);
        assert_eq!(served.latency_ms(), 35.0);
    }

    #[test]
    fn requests_are_sent_on_schedule_not_on_completion() {
        // Open loop: with four clients, four 30 ms requests due 5 ms
        // apart overlap instead of queueing behind each other.
        let schedule: Vec<Arrival> = (0..4)
            .map(|i| Arrival {
                due_ns: i * 5_000_000,
                class: 0,
            })
            .collect();
        let run = run_open_loop(&schedule, 4, |_| {
            std::thread::sleep(Duration::from_millis(30));
        });
        assert!(run.wall_ns < 100_000_000, "{}", run.wall_ns);
        assert!(run.served.iter().all(|s| s.latency_ms() < 60.0));
    }
}
