//! Monte-Carlo campaigns: simulated fleet hours producing incident records
//! and campaign statistics, in parallel and reproducibly.
//!
//! # Execution model
//!
//! The exposure is split into fixed-length *shifts* (at most 10 h each),
//! every shift simulated on its own RNG substream. Shifts are grouped into
//! fixed-size *blocks* of consecutive shift indices, and worker threads
//! claim blocks from a shared atomic counter — a work-stealing queue with
//! no per-worker striping, so a worker that draws cheap shifts simply
//! claims more blocks. Each block folds its shifts into a
//! [`ShiftAccumulator`] partial; after the pool drains, the partials are
//! merged **in block order**. Because the block partition depends only on
//! the exposure (never on the worker count or scheduling), the merged
//! result is bit-identical for any number of workers.
//!
//! Two accumulators ship: [`RecordingAccumulator`] keeps every raw
//! [`IncidentRecord`] (what [`Campaign::run`] returns), and
//! [`CountingAccumulator`] classifies records on the fly into per-zone
//! incident counts — the campaign's [`EvidenceLedger`] — so memory stays
//! O(incident types) no matter how many hours are simulated
//! ([`Campaign::run_counting`]).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use qrn_core::classification::IncidentClassification;
use qrn_core::incident::{IncidentRecord, IncidentTypeId};
use qrn_core::object::{Involvement, ObjectType};
use qrn_stats::evidence::EvidenceLedger;
use qrn_stats::poisson::WeightedCount;
use qrn_stats::rng::{bernoulli, exponential, uniform, Substreams};
use qrn_stats::summary::OnlineStats;
use qrn_units::{Acceleration, Frequency, Hours, Meters, Speed, UnitError};

use crate::encounter::{run_encounter, Challenge, EncounterOutcome};
use crate::faults::FaultPlan;
use crate::perception::PerceptionParams;
use crate::policy::TacticalPolicy;
use crate::scenario::WorldConfig;
use crate::splitting::{
    run_encounter_splitting, SplittingAccumulator, SplittingConfig, SplittingResult, SplittingShift,
};
use crate::vehicle::VehicleParams;

/// Shifts per work-queue block. Small enough that even a short campaign
/// yields several blocks to steal, large enough that the atomic claim and
/// the per-block partial are amortised over real work.
const SHIFTS_PER_BLOCK: u64 = 4;

/// Parameters of the induced-incident model: hard ego braking can force a
/// follower into a rear-end conflict (the lower half of the paper's
/// Fig. 4: "ego vehicle a causing factor in an incident involving other
/// road users").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InducedParams {
    /// Probability that a follower is present when the ego brakes hard.
    pub follower_probability: f64,
    /// Commanded deceleration above which a follower conflict is possible.
    pub hard_brake_threshold: Acceleration,
}

impl Default for InducedParams {
    fn default() -> Self {
        InducedParams {
            follower_probability: 0.3,
            hard_brake_threshold: Acceleration::new(6.0).expect("static value"),
        }
    }
}

/// A configured Monte-Carlo campaign.
pub struct Campaign<P> {
    config: WorldConfig,
    policy: P,
    vehicle: VehicleParams,
    perception: PerceptionParams,
    faults: FaultPlan,
    induced: InducedParams,
    hours: Hours,
    seed: u64,
    workers: usize,
}

impl<P: TacticalPolicy> Campaign<P> {
    /// Creates a campaign with default vehicle, perception, no faults,
    /// 100 h exposure, seed 0 and one worker per available CPU.
    pub fn new(config: WorldConfig, policy: P) -> Self {
        Campaign {
            config,
            policy,
            vehicle: VehicleParams::typical(),
            perception: PerceptionParams::typical(),
            faults: FaultPlan::none(),
            induced: InducedParams::default(),
            hours: Hours::new(100.0).expect("static value"),
            seed: 0,
            workers: default_workers(),
        }
    }

    /// Sets the total simulated exposure.
    pub fn hours(mut self, hours: Hours) -> Self {
        self.hours = hours;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of worker threads. The worker count never affects
    /// the simulated outcome, only the wall-clock time; zero workers is
    /// reported as an error by [`Campaign::run`].
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the vehicle parameters.
    pub fn vehicle(mut self, vehicle: VehicleParams) -> Self {
        self.vehicle = vehicle;
        self
    }

    /// Sets the perception parameters.
    pub fn perception(mut self, perception: PerceptionParams) -> Self {
        self.perception = perception;
        self
    }

    /// Sets the fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the induced-incident parameters.
    pub fn induced(mut self, induced: InducedParams) -> Self {
        self.induced = induced;
        self
    }

    /// Runs the campaign, keeping every raw record.
    ///
    /// The same `(config, policy, seed, hours)` always produces the same
    /// result, bit-identical for any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] for a zero-hour campaign or zero workers.
    pub fn run(&self) -> Result<CampaignResult, UnitError> {
        self.run_seeded(self.seed)
    }

    fn run_seeded(&self, seed: u64) -> Result<CampaignResult, UnitError> {
        let zones = self.config.zones.len();
        let make = || RecordingAccumulator::new(zones);
        let (mut partials, throughput) = self.execute_crude(&[seed], &make)?;
        let acc = partials.pop().expect("one accumulator per seed");
        self.finish_recording(acc, Some(throughput))
    }

    /// Runs the campaign in streaming mode: every shift's records are
    /// classified and folded into incident counts immediately, so
    /// memory stays bounded by the number of incident *types* — a
    /// million-hour campaign costs no more memory than a ten-hour one.
    ///
    /// The counts equal classifying [`Campaign::run`]'s records after the
    /// fact, and are bit-identical for any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] for a zero-hour campaign or zero workers.
    pub fn run_counting(
        &self,
        classification: &IncidentClassification,
    ) -> Result<CountingResult, UnitError> {
        let zones = self.config.zones.len();
        let make = || CountingAccumulator::new(classification, zones);
        let (mut partials, throughput) = self.execute_crude(&[self.seed], &make)?;
        let acc = partials.pop().expect("one accumulator per seed");
        Ok(self.finish_counting(acc, Some(throughput)))
    }

    /// Runs `n` independent replications (seeds `seed, seed+1, …`) and
    /// summarises the replication-to-replication spread of the headline
    /// rates — the error bars for any campaign-derived estimate.
    ///
    /// All replications share one worker pool: their blocks go into a
    /// single work queue, so the pool stays saturated across replication
    /// boundaries instead of draining `n` times. Each replication's result
    /// is identical to a plain [`Campaign::run`] with that seed.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] for a zero-hour campaign, zero workers, or
    /// `n == 0`.
    pub fn run_replications(&self, n: u64) -> Result<ReplicationSummary, UnitError> {
        let seeds = self.replication_seeds(n)?;
        let zones = self.config.zones.len();
        let make = || RecordingAccumulator::new(zones);
        let (partials, throughput) = self.execute_crude(&seeds, &make)?;

        let mut encounter_rate = OnlineStats::new();
        let mut hard_brake_rate = OnlineStats::new();
        let mut raw_record_count = OnlineStats::new();
        let mut results = Vec::with_capacity(n as usize);
        for acc in partials {
            // The pool's throughput covers all n replications at once; a
            // per-replication share of wall-clock time is not measurable,
            // so individual results carry no throughput here — the
            // pool-level figure lives on the summary.
            let result = self.finish_recording(acc, None)?;
            encounter_rate.push(result.encounter_rate()?.as_per_hour());
            hard_brake_rate.push(result.hard_brake_rate()?.as_per_hour());
            raw_record_count.push(result.records.len() as f64);
            results.push(result);
        }
        Ok(ReplicationSummary {
            replications: n,
            encounter_rate,
            hard_brake_rate,
            raw_record_count,
            results,
            throughput,
        })
    }

    /// The streaming counterpart of [`Campaign::run_replications`]: `n`
    /// independent replications (seeds `seed, seed+1, …`) whose records
    /// are classified and folded into incident counts on the fly, so
    /// memory stays O(replications × incident types) — no raw records are
    /// ever kept, which is what makes replicated million-hour campaigns
    /// feasible.
    ///
    /// Each replication's counts equal classifying the corresponding
    /// [`Campaign::run`] records after the fact; the per-type spread
    /// statistics cover every leaf of the classification, including types
    /// that never occurred (their count contributes a zero, which is
    /// exactly the information "this replication saw none").
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] for a zero-hour campaign, zero workers, or
    /// `n == 0`.
    pub fn run_replications_counting(
        &self,
        classification: &IncidentClassification,
        n: u64,
    ) -> Result<CountingReplicationSummary, UnitError> {
        let seeds = self.replication_seeds(n)?;
        let zones = self.config.zones.len();
        let make = || CountingAccumulator::new(classification, zones);
        let (partials, throughput) = self.execute_crude(&seeds, &make)?;

        let mut encounter_rate = OnlineStats::new();
        let mut hard_brake_rate = OnlineStats::new();
        let mut incident_count = OnlineStats::new();
        let mut incident_rates: BTreeMap<IncidentTypeId, OnlineStats> = classification
            .leaves()
            .iter()
            .map(|leaf| (leaf.id().clone(), OnlineStats::new()))
            .collect();
        let mut results = Vec::with_capacity(n as usize);
        for acc in partials {
            let result = self.finish_counting(acc, None);
            encounter_rate.push(result.encounter_rate()?.as_per_hour());
            hard_brake_rate.push(result.hard_brake_rate()?.as_per_hour());
            incident_count.push(result.evidence.incident_observations() as f64);
            for (id, stats) in &mut incident_rates {
                let count = result.evidence.count(id.as_str()).observations();
                let rate = Frequency::from_count(count as f64, self.hours)?;
                stats.push(rate.as_per_hour());
            }
            results.push(result);
        }
        Ok(CountingReplicationSummary {
            replications: n,
            encounter_rate,
            hard_brake_rate,
            incident_count,
            incident_rates,
            results,
            throughput,
        })
    }

    /// The seeds `seed, seed+1, …` of `n` replications.
    fn replication_seeds(&self, n: u64) -> Result<Vec<u64>, UnitError> {
        if n == 0 {
            return Err(UnitError::OutOfRange {
                quantity: "replication count",
                value: 0.0,
                min: 1.0,
                max: f64::MAX,
            });
        }
        Ok((0..n).map(|i| self.seed + i).collect())
    }

    /// [`execute`](Self::execute) specialised to the crude
    /// ([`ShiftOutcome`]-producing) shift simulation.
    fn execute_crude<A, F>(
        &self,
        seeds: &[u64],
        make: &F,
    ) -> Result<(Vec<A>, Throughput), UnitError>
    where
        A: ShiftAccumulator<Shift = ShiftOutcome>,
        F: Fn() -> A + Sync,
    {
        let zones = self.config.zones.len();
        self.execute(
            seeds,
            make,
            &move || ShiftOutcome::empty(zones),
            &|hours, rng, out| self.run_shift(hours, rng, out),
        )
    }

    /// The work-stealing engine: simulates every `(seed, block)` task on a
    /// shared pool and returns one order-merged accumulator per seed, in
    /// seed order, plus the pool's throughput statistics.
    ///
    /// `make_shift` creates one scratch shift buffer per worker thread;
    /// `run_shift` must fully overwrite it (reset + refill), so the inner
    /// loop reuses the buffers instead of allocating per shift.
    fn execute<A, F, MS, RS>(
        &self,
        seeds: &[u64],
        make: &F,
        make_shift: &MS,
        run_shift: &RS,
    ) -> Result<(Vec<A>, Throughput), UnitError>
    where
        A: ShiftAccumulator,
        F: Fn() -> A + Sync,
        MS: Fn() -> A::Shift + Sync,
        RS: Fn(f64, &mut StdRng, &mut A::Shift) + Sync,
    {
        if self.workers == 0 {
            return Err(UnitError::OutOfRange {
                quantity: "campaign workers",
                value: 0.0,
                min: 1.0,
                max: f64::MAX,
            });
        }
        if self.hours.value() <= 0.0 {
            return Err(UnitError::OutOfRange {
                quantity: "campaign exposure",
                value: self.hours.value(),
                min: f64::MIN_POSITIVE,
                max: f64::MAX,
            });
        }
        let hours = self.hours.value();
        // Fixed-size shifts and a fixed block partition: the task geometry
        // depends only on the exposure, so any worker count reproduces the
        // same partials and the same merge order.
        let shift_hours = 10.0f64.min(hours);
        let shifts = (hours / shift_hours).ceil() as u64;
        let blocks = shifts.div_ceil(SHIFTS_PER_BLOCK);
        let total_tasks = seeds.len() as u64 * blocks;
        let substreams: Vec<Substreams> = seeds.iter().map(|&s| Substreams::new(s)).collect();

        let queue = AtomicU64::new(0);
        let threads = self.workers.min(total_tasks as usize);
        let wall = Instant::now();
        let worker_outputs: Vec<(Vec<(u64, A)>, WorkerThroughput)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        let mut stats = WorkerThroughput::default();
                        // One scratch shift buffer per worker, recycled
                        // across every shift this worker claims.
                        let mut scratch = make_shift();
                        loop {
                            let task = queue.fetch_add(1, Ordering::Relaxed);
                            if task >= total_tasks {
                                break;
                            }
                            let started = Instant::now();
                            let rep = (task / blocks) as usize;
                            let block = task % blocks;
                            let first = block * SHIFTS_PER_BLOCK;
                            let last = (first + SHIFTS_PER_BLOCK).min(shifts);
                            let mut acc = make();
                            for shift in first..last {
                                let remaining = hours - shift as f64 * shift_hours;
                                let this_shift = shift_hours.min(remaining);
                                let mut rng = substreams[rep].stream(shift);
                                run_shift(this_shift, &mut rng, &mut scratch);
                                acc.absorb(&mut scratch);
                                stats.sim_hours += this_shift;
                            }
                            stats.shifts += last - first;
                            stats.busy_seconds += started.elapsed().as_secs_f64();
                            local.push((task, acc));
                        }
                        (local, stats)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shift worker panicked"))
                .collect()
        });
        let wall_seconds = wall.elapsed().as_secs_f64();

        let mut per_worker = Vec::with_capacity(worker_outputs.len());
        let mut partials: Vec<(u64, A)> = Vec::with_capacity(total_tasks as usize);
        for (local, stats) in worker_outputs {
            partials.extend(local);
            per_worker.push(stats);
        }
        // The reduce: strictly ascending task order restores the sequential
        // grouping regardless of which worker computed which block.
        partials.sort_unstable_by_key(|(task, _)| *task);
        let mut merged: Vec<A> = Vec::with_capacity(seeds.len());
        for (task, acc) in partials {
            if task % blocks == 0 {
                merged.push(acc);
            } else {
                merged
                    .last_mut()
                    .expect("block 0 of each seed precedes its later blocks")
                    .merge(acc);
            }
        }

        let sim_hours = hours * seeds.len() as f64;
        let total_shifts = shifts * seeds.len() as u64;
        let throughput = Throughput {
            workers: threads,
            wall_seconds,
            shifts: total_shifts,
            sim_hours,
            shifts_per_second: total_shifts as f64 / wall_seconds.max(f64::MIN_POSITIVE),
            sim_hours_per_second: sim_hours / wall_seconds.max(f64::MIN_POSITIVE),
            per_worker,
        };
        Ok((merged, throughput))
    }

    fn finish_recording(
        &self,
        acc: RecordingAccumulator,
        throughput: Option<Throughput>,
    ) -> Result<CampaignResult, UnitError> {
        let RecordingAccumulator { totals, records } = acc;
        let (zone_hours, zone_encounters) = totals.named_zones(&self.config);
        Ok(CampaignResult {
            policy_name: self.policy.name().to_string(),
            records,
            exposure: Hours::new(totals.hours)?,
            encounters: totals.encounters,
            hard_brake_demands: totals.hard_brake_demands,
            undetected_encounters: totals.undetected_encounters,
            mean_cruise_kmh: totals.mean_cruise_kmh(),
            encounter_seconds: totals.encounter_seconds,
            zone_hours,
            zone_encounters,
            throughput,
        })
    }

    fn finish_counting(
        &self,
        acc: CountingAccumulator,
        throughput: Option<Throughput>,
    ) -> CountingResult {
        let CountingAccumulator {
            classification,
            totals,
            records_per_shift,
            zone_counts,
            zone_unclassified,
        } = acc;
        // The campaign's unified evidence: the global row carries the exact
        // integer counts (every record falls in exactly one zone, so they
        // are the zone sums) and the exposure as accumulated shift by
        // shift; visited zones contribute refinement rows pre-seeded with
        // every leaf of the classification.
        let mut evidence = EvidenceLedger::new();
        evidence.add_exposure(None, totals.hours);
        for leaf in classification.leaves() {
            let n = zone_counts
                .iter()
                .map(|zone| zone.get(leaf.id()).copied().unwrap_or(0))
                .sum();
            evidence.add_count(None, leaf.id().as_str(), &WeightedCount::unit(n));
        }
        let non_incidents = zone_unclassified.iter().sum();
        evidence.add_unclassified_count(None, &WeightedCount::unit(non_incidents));
        for (idx, zone) in self.config.zones.iter().enumerate() {
            if totals.zone_hours[idx] > 0.0 {
                evidence.add_exposure(Some(&zone.name), totals.zone_hours[idx]);
                for leaf in classification.leaves() {
                    let n = zone_counts[idx].get(leaf.id()).copied().unwrap_or(0);
                    evidence.add_count(
                        Some(&zone.name),
                        leaf.id().as_str(),
                        &WeightedCount::unit(n),
                    );
                }
                evidence.add_unclassified_count(
                    Some(&zone.name),
                    &WeightedCount::unit(zone_unclassified[idx]),
                );
            }
        }
        let (zone_hours, zone_encounters) = totals.named_zones(&self.config);
        CountingResult {
            policy_name: self.policy.name().to_string(),
            records_per_shift,
            evidence,
            encounters: totals.encounters,
            hard_brake_demands: totals.hard_brake_demands,
            undetected_encounters: totals.undetected_encounters,
            mean_cruise_kmh: totals.mean_cruise_kmh(),
            encounter_seconds: totals.encounter_seconds,
            zone_hours,
            zone_encounters,
            throughput,
        }
    }

    /// Runs the campaign as a multilevel-splitting rare-event estimation
    /// (see [`crate::splitting`]): encounters whose severity crosses the
    /// configured levels are cloned with likelihood weights, and the
    /// weighted masses are classified per incident type on the fly.
    ///
    /// Shares the exposure partition, substream layout and block-ordered
    /// merge with the crude engine, so the result is bit-identical for any
    /// worker count.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] for a zero-hour campaign or zero workers.
    pub fn run_splitting(
        &self,
        classification: &IncidentClassification,
        config: &SplittingConfig,
    ) -> Result<SplittingResult, UnitError> {
        let zones = self.config.zones.len();
        let make = || SplittingAccumulator::new(classification, zones);
        let run = |hours: f64, rng: &mut StdRng, out: &mut SplittingShift| {
            self.run_splitting_shift(hours, rng, config, out);
        };
        let (mut partials, throughput) = self.execute(
            &[self.seed],
            &make,
            &move || SplittingShift::empty(zones),
            &run,
        )?;
        let acc = partials.pop().expect("one accumulator per seed");
        let zone_names: Vec<&str> = self.config.zones.iter().map(|z| z.name.as_str()).collect();
        acc.finish(self.policy.name(), config, &zone_names, Some(throughput))
    }

    /// The shared zone walk: advances through the zone cycle, draws
    /// challenge arrivals, and hands every cruise segment and encounter to
    /// the callbacks. Both engines (crude and splitting) drive their shifts
    /// through this one function, so the exposure process — including its
    /// RNG draw order — is identical by construction.
    fn walk_shift<S>(
        &self,
        hours: f64,
        rng: &mut StdRng,
        out: &mut S,
        mut on_segment: impl FnMut(&mut S, usize, f64, Speed),
        mut on_encounter: impl FnMut(&mut S, usize, usize, Speed, &PerceptionParams, &mut StdRng),
    ) {
        let mut t = 0.0; // hours into the shift
        let mut zone_idx = 0;
        let mut zone_left = self.config.zones[0].dwell.value();
        while t < hours {
            let zone = &self.config.zones[zone_idx];
            // Weather in the zone degrades the detection range; the policy
            // plans its cruise speed against the degraded range (Sec. IV:
            // the ADS adapts driving style to sensor performance).
            let zone_perception = self.perception.with_range_factor(zone.perception_factor);
            let cruise = self.policy.cruise_speed(
                zone.speed_limit,
                &zone_perception,
                &self.vehicle,
                self.vehicle.max_brake,
            );
            // Earliest challenge arrival across factors, in hours.
            let mut next: Option<(f64, usize)> = None;
            for (i, template) in self.config.challenges.iter().enumerate() {
                let rate = self
                    .config
                    .exposure
                    .rate(&template.factor, &zone.context)
                    .expect("scenario factors all have base rates")
                    .as_per_hour();
                if rate <= 0.0 {
                    continue;
                }
                let dt = exponential(rng, rate);
                if next.is_none_or(|(best, _)| dt < best) {
                    next = Some((dt, i));
                }
            }
            let until_zone_end = zone_left.min(hours - t);
            match next {
                Some((dt, template_idx)) if dt < until_zone_end => {
                    t += dt;
                    zone_left -= dt;
                    on_segment(out, zone_idx, dt, cruise);
                    on_encounter(out, zone_idx, template_idx, cruise, &zone_perception, rng);
                }
                _ => {
                    t += until_zone_end;
                    zone_left -= until_zone_end;
                    on_segment(out, zone_idx, until_zone_end, cruise);
                }
            }
            if zone_left <= 1e-12 {
                zone_idx = (zone_idx + 1) % self.config.zones.len();
                zone_left = self.config.zones[zone_idx].dwell.value();
            }
        }
    }

    /// Simulates one shift of `hours` driving into the scratch buffer.
    fn run_shift(&self, hours: f64, rng: &mut StdRng, result: &mut ShiftOutcome) {
        result.reset(hours);
        self.walk_shift(
            hours,
            rng,
            result,
            |out, zone_idx, dt, cruise| {
                out.speed_time += cruise.as_kmh() * dt;
                out.zone_hours[zone_idx] += dt;
            },
            |out, zone_idx, template_idx, cruise, zone_perception, rng| {
                out.zone_encounters[zone_idx] += 1;
                self.run_one_encounter(zone_idx, template_idx, cruise, zone_perception, rng, out);
            },
        );
    }

    /// Simulates one splitting shift into the scratch buffer: the same
    /// exposure walk, but every encounter becomes a splitting cascade
    /// seeded by one draw from the shift stream.
    fn run_splitting_shift(
        &self,
        hours: f64,
        rng: &mut StdRng,
        config: &SplittingConfig,
        out: &mut SplittingShift,
    ) {
        out.reset(hours);
        self.walk_shift(
            hours,
            rng,
            out,
            |out, zone_idx, dt, _cruise| {
                out.zone_hours[zone_idx] += dt;
            },
            |out, zone_idx, template_idx, cruise, zone_perception, rng| {
                let template = &self.config.challenges[template_idx];
                let challenge = Challenge::sample(template, cruise, rng);
                let faults = self.faults.sample(rng);
                // One seed per encounter: the cascade below is a pure
                // function of it, whatever the splitting does.
                let encounter_seed = rng.next_u64();
                run_encounter_splitting(
                    &challenge,
                    cruise,
                    &self.policy,
                    &self.vehicle,
                    zone_perception,
                    &faults,
                    &self.induced,
                    config,
                    encounter_seed,
                    Involvement::ego_with(template.object),
                    zone_idx,
                    out,
                );
            },
        );
    }

    fn run_one_encounter(
        &self,
        zone_idx: usize,
        template_idx: usize,
        cruise: Speed,
        perception: &PerceptionParams,
        rng: &mut StdRng,
        result: &mut ShiftOutcome,
    ) {
        let template = &self.config.challenges[template_idx];
        let challenge = Challenge::sample(template, cruise, rng);
        let faults = self.faults.sample(rng);
        let (outcome, stats) = run_encounter(
            &challenge,
            cruise,
            &self.policy,
            &self.vehicle,
            perception,
            &faults,
            rng,
        );
        result.encounters += 1;
        result.encounter_seconds += stats.duration_s;
        if !stats.detected {
            result.undetected_encounters += 1;
        }
        // The paper's Sec. II-B.3 yardstick: how often does the drive
        // *demand* braking significantly harder than 4 m/s²?
        if stats.max_commanded_brake.value() > 4.0 {
            result.hard_brake_demands += 1;
        }
        let involvement = Involvement::ego_with(template.object);
        match outcome {
            EncounterOutcome::Collision { impact_speed } => {
                result
                    .records
                    .push(IncidentRecord::collision(involvement, impact_speed));
            }
            EncounterOutcome::Resolved {
                min_gap,
                closing_at_min,
            } => {
                result.records.push(IncidentRecord::near_miss(
                    involvement,
                    min_gap,
                    closing_at_min,
                ));
            }
        }
        result.record_zones.push(zone_idx);
        // Induced rear-end conflict behind hard ego braking.
        if let Some(record) = sample_induced(stats.max_commanded_brake, &self.induced, rng) {
            result.records.push(record);
            result.record_zones.push(zone_idx);
        }
    }
}

/// Rolls the induced-incident model once: does the ego's hardest braking
/// force a follower into a rear-end conflict, and how does it end? Draws
/// from `rng` only as far as the short-circuit evaluation gets, exactly as
/// the inline code it replaces, so crude campaigns stay bit-identical.
pub(crate) fn sample_induced<R: rand::Rng + ?Sized>(
    max_commanded_brake: Acceleration,
    induced: &InducedParams,
    rng: &mut R,
) -> Option<IncidentRecord> {
    if !(max_commanded_brake > induced.hard_brake_threshold
        && bernoulli(rng, induced.follower_probability))
    {
        return None;
    }
    let excess = max_commanded_brake.value() - induced.hard_brake_threshold.value();
    let pair = Involvement::induced(ObjectType::Car, ObjectType::Car);
    Some(if bernoulli(rng, (0.1 * excess).min(0.3)) {
        let impact = uniform(rng, 2.0, 5.0 + 10.0 * excess);
        IncidentRecord::collision(pair, Speed::from_kmh(impact).expect("bounded"))
    } else {
        IncidentRecord::near_miss(
            pair,
            Meters::new(uniform(rng, 0.1, 1.5)).expect("bounded"),
            Speed::from_kmh(uniform(rng, 5.0, 30.0)).expect("bounded"),
        )
    })
}

/// One worker count per available CPU, with a fallback of one.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Everything one simulated shift produced. Zone tallies are keyed by the
/// zone's index in [`WorldConfig::zones`]; names are resolved once at the
/// end of the campaign instead of being cloned per shift.
#[derive(Debug)]
pub struct ShiftOutcome {
    /// Simulated duration of this shift.
    pub hours: f64,
    /// Raw events, in simulation order.
    pub records: Vec<IncidentRecord>,
    /// Zone index each record was produced in, parallel to `records` —
    /// what lets evidence consumers attribute incidents to ODD contexts.
    pub record_zones: Vec<usize>,
    /// Challenges encountered.
    pub encounters: u64,
    /// Encounters demanding braking harder than 4 m/s².
    pub hard_brake_demands: u64,
    /// Encounters the perception never detected.
    pub undetected_encounters: u64,
    /// Integral of cruise speed over time, km/h·h.
    pub speed_time: f64,
    /// Integrated encounter-simulation time, seconds of 10 ms stepping —
    /// the deterministic compute-cost proxy used for matched-compute
    /// comparisons against splitting campaigns.
    pub encounter_seconds: f64,
    /// Time spent per zone index, hours.
    pub zone_hours: Vec<f64>,
    /// Challenges encountered per zone index.
    pub zone_encounters: Vec<u64>,
}

impl ShiftOutcome {
    /// An empty outcome buffer for a world with `zones` zones. The engine
    /// creates one per worker and recycles it across every shift the
    /// worker simulates ([`reset`](ShiftOutcome::reset) + refill).
    pub fn empty(zones: usize) -> Self {
        ShiftOutcome {
            hours: 0.0,
            records: Vec::new(),
            record_zones: Vec::new(),
            encounters: 0,
            hard_brake_demands: 0,
            undetected_encounters: 0,
            speed_time: 0.0,
            encounter_seconds: 0.0,
            zone_hours: vec![0.0; zones],
            zone_encounters: vec![0; zones],
        }
    }

    /// Clears the buffer for the next shift, keeping allocations.
    pub fn reset(&mut self, hours: f64) {
        self.hours = hours;
        self.records.clear();
        self.record_zones.clear();
        self.encounters = 0;
        self.hard_brake_demands = 0;
        self.undetected_encounters = 0;
        self.speed_time = 0.0;
        self.encounter_seconds = 0.0;
        for h in &mut self.zone_hours {
            *h = 0.0;
        }
        for n in &mut self.zone_encounters {
            *n = 0;
        }
    }
}

/// A mergeable reduction of simulated shifts.
///
/// The engine folds each shift into a block-local partial with
/// [`absorb`](ShiftAccumulator::absorb), then combines partials with
/// [`merge`](ShiftAccumulator::merge) in ascending block order. `merge`
/// must equal absorbing the later partial's shifts directly — i.e. be the
/// associative extension of `absorb` — which is what makes the campaign
/// outcome independent of how blocks were scheduled across workers.
///
/// `absorb` receives the shift by `&mut` because the engine reuses one
/// scratch [`Shift`](ShiftAccumulator::Shift) buffer per worker thread:
/// the accumulator may drain it (move records out), and the engine resets
/// it before the next shift — the hot loop allocates nothing once the
/// buffers have warmed up.
pub trait ShiftAccumulator: Send {
    /// What one simulated shift produces for this accumulator.
    type Shift: Send;
    /// Folds one shift, in shift order within the block. May drain the
    /// shift's buffers; the engine resets them before reuse.
    fn absorb(&mut self, shift: &mut Self::Shift);
    /// Appends a partial that covers strictly later shifts.
    fn merge(&mut self, later: Self);
}

/// Scalar tallies shared by every accumulator.
#[derive(Debug, Clone, Default)]
struct CampaignTotals {
    hours: f64,
    encounters: u64,
    hard_brake_demands: u64,
    undetected_encounters: u64,
    speed_time: f64,
    encounter_seconds: f64,
    zone_hours: Vec<f64>,
    zone_encounters: Vec<u64>,
}

impl CampaignTotals {
    fn new(zones: usize) -> Self {
        CampaignTotals {
            zone_hours: vec![0.0; zones],
            zone_encounters: vec![0; zones],
            ..CampaignTotals::default()
        }
    }

    fn absorb(&mut self, shift: &ShiftOutcome) {
        self.hours += shift.hours;
        self.encounters += shift.encounters;
        self.hard_brake_demands += shift.hard_brake_demands;
        self.undetected_encounters += shift.undetected_encounters;
        self.speed_time += shift.speed_time;
        self.encounter_seconds += shift.encounter_seconds;
        for (sum, h) in self.zone_hours.iter_mut().zip(&shift.zone_hours) {
            *sum += h;
        }
        for (sum, n) in self.zone_encounters.iter_mut().zip(&shift.zone_encounters) {
            *sum += n;
        }
    }

    fn merge(&mut self, later: &CampaignTotals) {
        self.hours += later.hours;
        self.encounters += later.encounters;
        self.hard_brake_demands += later.hard_brake_demands;
        self.undetected_encounters += later.undetected_encounters;
        self.speed_time += later.speed_time;
        self.encounter_seconds += later.encounter_seconds;
        for (sum, h) in self.zone_hours.iter_mut().zip(&later.zone_hours) {
            *sum += h;
        }
        for (sum, n) in self.zone_encounters.iter_mut().zip(&later.zone_encounters) {
            *sum += n;
        }
    }

    fn mean_cruise_kmh(&self) -> f64 {
        if self.hours > 0.0 {
            self.speed_time / self.hours
        } else {
            0.0
        }
    }

    /// Resolves zone-index tallies into name-keyed maps, keeping only
    /// zones that were actually visited (matching the observable behaviour
    /// of the per-shift string maps this replaces).
    fn named_zones(&self, config: &WorldConfig) -> (BTreeMap<String, f64>, BTreeMap<String, u64>) {
        let mut hours = BTreeMap::new();
        let mut encounters = BTreeMap::new();
        for (zone, (&h, &n)) in config
            .zones
            .iter()
            .zip(self.zone_hours.iter().zip(&self.zone_encounters))
        {
            if h > 0.0 {
                *hours.entry(zone.name.clone()).or_insert(0.0) += h;
            }
            if n > 0 {
                *encounters.entry(zone.name.clone()).or_insert(0) += n;
            }
        }
        (hours, encounters)
    }
}

/// Accumulator keeping every raw record — the exact, replayable campaign
/// outcome. Memory grows with the record count.
#[derive(Debug)]
pub struct RecordingAccumulator {
    totals: CampaignTotals,
    records: Vec<IncidentRecord>,
}

impl RecordingAccumulator {
    /// An empty partial for a world with `zones` zones.
    pub fn new(zones: usize) -> Self {
        RecordingAccumulator {
            totals: CampaignTotals::new(zones),
            records: Vec::new(),
        }
    }
}

impl ShiftAccumulator for RecordingAccumulator {
    type Shift = ShiftOutcome;

    fn absorb(&mut self, shift: &mut ShiftOutcome) {
        self.totals.absorb(shift);
        self.records.append(&mut shift.records);
    }

    fn merge(&mut self, later: Self) {
        self.totals.merge(&later.totals);
        self.records.extend(later.records);
    }
}

/// Accumulator classifying records as they are produced, folding them into
/// per-zone incident counts and an [`OnlineStats`] over per-shift record
/// counts. Memory is O(incident types), independent of exposure.
#[derive(Debug)]
pub struct CountingAccumulator<'c> {
    classification: &'c IncidentClassification,
    totals: CampaignTotals,
    records_per_shift: OnlineStats,
    /// Classified incident counts per zone index — the refinement rows of
    /// the campaign's [`EvidenceLedger`].
    zone_counts: Vec<BTreeMap<IncidentTypeId, u64>>,
    /// Unclassified record counts per zone index.
    zone_unclassified: Vec<u64>,
}

impl<'c> CountingAccumulator<'c> {
    /// An empty partial classifying with `classification`.
    pub fn new(classification: &'c IncidentClassification, zones: usize) -> Self {
        CountingAccumulator {
            classification,
            totals: CampaignTotals::new(zones),
            records_per_shift: OnlineStats::new(),
            zone_counts: vec![BTreeMap::new(); zones],
            zone_unclassified: vec![0; zones],
        }
    }
}

impl ShiftAccumulator for CountingAccumulator<'_> {
    type Shift = ShiftOutcome;

    fn absorb(&mut self, shift: &mut ShiftOutcome) {
        self.totals.absorb(shift);
        self.records_per_shift.push(shift.records.len() as f64);
        for (record, &zone) in shift.records.iter().zip(&shift.record_zones) {
            match self.classification.classify(record) {
                Some(leaf) => {
                    *self.zone_counts[zone].entry(leaf.id().clone()).or_insert(0) += 1;
                }
                None => self.zone_unclassified[zone] += 1,
            }
        }
    }

    fn merge(&mut self, later: Self) {
        self.totals.merge(&later.totals);
        self.records_per_shift.merge(&later.records_per_shift);
        for (sum, zone) in self.zone_counts.iter_mut().zip(&later.zone_counts) {
            for (id, n) in zone {
                *sum.entry(id.clone()).or_insert(0) += n;
            }
        }
        for (sum, n) in self
            .zone_unclassified
            .iter_mut()
            .zip(&later.zone_unclassified)
        {
            *sum += n;
        }
    }
}

/// Wall-clock statistics of one engine run. Never part of result equality
/// or determinism guarantees — two identical campaigns report different
/// throughput.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Throughput {
    /// Worker threads actually spawned.
    pub workers: usize,
    /// Wall-clock duration of the parallel section, seconds.
    pub wall_seconds: f64,
    /// Shifts simulated (across all replications).
    pub shifts: u64,
    /// Hours simulated (across all replications).
    pub sim_hours: f64,
    /// Shifts completed per wall-clock second.
    pub shifts_per_second: f64,
    /// Simulated hours per wall-clock second — the headline speed.
    pub sim_hours_per_second: f64,
    /// Per-worker tallies, in spawn order.
    pub per_worker: Vec<WorkerThroughput>,
}

/// What one worker thread contributed.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct WorkerThroughput {
    /// Shifts this worker claimed and simulated.
    pub shifts: u64,
    /// Simulated hours this worker produced.
    pub sim_hours: f64,
    /// Time this worker spent simulating, seconds.
    pub busy_seconds: f64,
}

impl fmt::Display for Throughput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} shifts ({:.0} sim-h) in {:.2} s on {} workers: {:.0} sim-h/s",
            self.shifts, self.sim_hours, self.wall_seconds, self.workers, self.sim_hours_per_second
        )
    }
}

/// The outcome of a campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Name of the policy that drove.
    pub policy_name: String,
    /// Every raw event produced (collisions and closest approaches; the
    /// classification decides which are incidents).
    pub records: Vec<IncidentRecord>,
    /// Total simulated exposure.
    exposure: Hours,
    /// Number of challenges encountered.
    pub encounters: u64,
    /// Encounters that demanded braking harder than 4 m/s².
    pub hard_brake_demands: u64,
    /// Encounters the perception never detected.
    pub undetected_encounters: u64,
    /// Exposure-weighted mean cruise speed, km/h.
    pub mean_cruise_kmh: f64,
    /// Integrated encounter-simulation time, seconds of 10 ms stepping —
    /// the deterministic compute-cost proxy for matched-compute
    /// comparisons against splitting campaigns.
    pub encounter_seconds: f64,
    /// Time spent per zone, hours.
    zone_hours: BTreeMap<String, f64>,
    /// Challenges encountered per zone.
    zone_encounters: BTreeMap<String, u64>,
    /// Wall-clock statistics of the pool that produced this result,
    /// excluded from equality. `Some` only when the run owned the pool
    /// ([`Campaign::run`]); `None` for results from
    /// [`Campaign::run_replications`], whose shared pool's figures cover
    /// all replications at once and live on [`ReplicationSummary`].
    pub throughput: Option<Throughput>,
}

/// Equality covers the simulated outcome only; [`CampaignResult::throughput`]
/// is wall-clock measurement and varies between identical campaigns.
impl PartialEq for CampaignResult {
    fn eq(&self, other: &Self) -> bool {
        self.policy_name == other.policy_name
            && self.records == other.records
            && self.exposure == other.exposure
            && self.encounters == other.encounters
            && self.hard_brake_demands == other.hard_brake_demands
            && self.undetected_encounters == other.undetected_encounters
            && self.mean_cruise_kmh == other.mean_cruise_kmh
            && self.encounter_seconds == other.encounter_seconds
            && self.zone_hours == other.zone_hours
            && self.zone_encounters == other.zone_encounters
    }
}

impl CampaignResult {
    /// Total simulated exposure.
    pub fn exposure(&self) -> Hours {
        self.exposure
    }

    /// Classifies the raw records into the unified evidence representation:
    /// a global-row-only [`EvidenceLedger`] with exact unit-weight masses,
    /// pre-seeded with every leaf of the classification. (The recording
    /// engine does not retain per-record zones; campaigns that need zone
    /// refinement rows should use [`Campaign::run_counting`].)
    pub fn evidence(&self, classification: &IncidentClassification) -> EvidenceLedger {
        classification.evidence(&self.records, self.exposure)
    }

    /// Rate of hard-braking demands (> 4 m/s²) per operating hour — the
    /// paper's policy-dependence yardstick.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] for a zero-exposure result.
    pub fn hard_brake_rate(&self) -> Result<Frequency, UnitError> {
        Frequency::from_count(self.hard_brake_demands as f64, self.exposure)
    }

    /// Rate of challenges encountered per operating hour.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] for a zero-exposure result.
    pub fn encounter_rate(&self) -> Result<Frequency, UnitError> {
        Frequency::from_count(self.encounters as f64, self.exposure)
    }

    /// Time spent in a zone, or zero for an unvisited zone.
    pub fn zone_exposure(&self, zone: &str) -> Hours {
        Hours::new(self.zone_hours.get(zone).copied().unwrap_or(0.0))
            .expect("accumulated durations are non-negative")
    }

    /// Observed challenge rate in one zone, or `None` for an unvisited
    /// zone — the empirical counterpart of the exposure model's
    /// context-dependent rates (Sec. II-B.4).
    pub fn zone_encounter_rate(&self, zone: &str) -> Option<Frequency> {
        let hours = self.zone_hours.get(zone).copied()?;
        let count = self.zone_encounters.get(zone).copied().unwrap_or(0);
        Frequency::from_count(count as f64, Hours::new(hours).ok()?).ok()
    }

    /// The zones visited, in name order.
    pub fn zones(&self) -> impl Iterator<Item = &str> {
        self.zone_hours.keys().map(String::as_str)
    }
}

/// The outcome of a streaming (counting) campaign: classified incident
/// evidence and campaign statistics, but no raw records.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CountingResult {
    /// Name of the policy that drove.
    pub policy_name: String,
    /// Distribution of raw record counts per shift.
    pub records_per_shift: OnlineStats,
    /// The campaign's unified evidence: global row with the exact integer
    /// counts (weight-1.0 masses) over the campaign exposure, plus one
    /// refinement row per visited zone — what downstream Eq. (1)
    /// verification and fleet burn-down merge and consume.
    pub evidence: EvidenceLedger,
    /// Number of challenges encountered.
    pub encounters: u64,
    /// Encounters that demanded braking harder than 4 m/s².
    pub hard_brake_demands: u64,
    /// Encounters the perception never detected.
    pub undetected_encounters: u64,
    /// Exposure-weighted mean cruise speed, km/h.
    pub mean_cruise_kmh: f64,
    /// Integrated encounter-simulation time, seconds of 10 ms stepping —
    /// the deterministic compute-cost proxy for matched-compute
    /// comparisons against splitting campaigns.
    pub encounter_seconds: f64,
    /// Time spent per zone, hours.
    zone_hours: BTreeMap<String, f64>,
    /// Challenges encountered per zone.
    zone_encounters: BTreeMap<String, u64>,
    /// Wall-clock statistics of the pool that produced this result,
    /// excluded from equality. `Some` only when the run owned the pool
    /// ([`Campaign::run_counting`]); `None` for results from
    /// [`Campaign::run_replications_counting`], whose shared pool's
    /// figures cover all replications at once and live on
    /// [`CountingReplicationSummary`].
    pub throughput: Option<Throughput>,
}

/// Equality covers the simulated outcome only, never the throughput.
impl PartialEq for CountingResult {
    fn eq(&self, other: &Self) -> bool {
        self.policy_name == other.policy_name
            && self.records_per_shift == other.records_per_shift
            && self.evidence == other.evidence
            && self.encounters == other.encounters
            && self.hard_brake_demands == other.hard_brake_demands
            && self.undetected_encounters == other.undetected_encounters
            && self.mean_cruise_kmh == other.mean_cruise_kmh
            && self.encounter_seconds == other.encounter_seconds
            && self.zone_hours == other.zone_hours
            && self.zone_encounters == other.zone_encounters
    }
}

impl CountingResult {
    /// Total simulated exposure: the shift-by-shift sum the evidence's
    /// global row carries.
    pub fn exposure(&self) -> Hours {
        Hours::new(self.evidence.exposure()).expect("accumulated durations are non-negative")
    }

    /// Rate of hard-braking demands (> 4 m/s²) per operating hour.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] for a zero-exposure result.
    pub fn hard_brake_rate(&self) -> Result<Frequency, UnitError> {
        Frequency::from_count(self.hard_brake_demands as f64, self.exposure())
    }

    /// Rate of challenges encountered per operating hour.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] for a zero-exposure result.
    pub fn encounter_rate(&self) -> Result<Frequency, UnitError> {
        Frequency::from_count(self.encounters as f64, self.exposure())
    }
}

impl fmt::Display for CountingResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} incidents ({} uneventful records) over {}: {} encounters, {} hard-brake demands",
            self.policy_name,
            self.evidence.incident_observations(),
            self.evidence.unclassified().observations(),
            self.exposure(),
            self.encounters,
            self.hard_brake_demands,
        )
    }
}

/// Spread statistics over independent campaign replications.
#[derive(Debug, Clone)]
pub struct ReplicationSummary {
    /// Number of replications run.
    pub replications: u64,
    /// Per-replication encounter rate (events per hour).
    pub encounter_rate: OnlineStats,
    /// Per-replication hard-brake demand rate (events per hour).
    pub hard_brake_rate: OnlineStats,
    /// Per-replication raw record count.
    pub raw_record_count: OnlineStats,
    /// The individual replication results, in seed order.
    pub results: Vec<CampaignResult>,
    /// Wall-clock statistics of the shared pool that ran every
    /// replication. This is the only throughput figure for the batch —
    /// the individual [`CampaignResult`]s carry `None`, because the
    /// pool's wall-clock time cannot be attributed to single seeds.
    pub throughput: Throughput,
}

/// Equality covers the simulated outcomes only, never the throughput.
impl PartialEq for ReplicationSummary {
    fn eq(&self, other: &Self) -> bool {
        self.replications == other.replications
            && self.encounter_rate == other.encounter_rate
            && self.hard_brake_rate == other.hard_brake_rate
            && self.raw_record_count == other.raw_record_count
            && self.results == other.results
    }
}

impl fmt::Display for ReplicationSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} replications: encounters {:.3} ± {:.3}/h, hard brakes {:.3} ± {:.3}/h",
            self.replications,
            self.encounter_rate.mean(),
            self.encounter_rate.std_dev(),
            self.hard_brake_rate.mean(),
            self.hard_brake_rate.std_dev(),
        )
    }
}

/// Spread statistics over independent streaming (counting) replications:
/// the error bars for classified incident rates, without ever holding raw
/// records.
#[derive(Debug, Clone)]
pub struct CountingReplicationSummary {
    /// Number of replications run.
    pub replications: u64,
    /// Per-replication encounter rate (events per hour).
    pub encounter_rate: OnlineStats,
    /// Per-replication hard-brake demand rate (events per hour).
    pub hard_brake_rate: OnlineStats,
    /// Per-replication classified incident count (all types together).
    pub incident_count: OnlineStats,
    /// Per-replication incident rate (events per hour) for every leaf of
    /// the classification, in incident-id order.
    pub incident_rates: BTreeMap<IncidentTypeId, OnlineStats>,
    /// The individual replication results, in seed order.
    pub results: Vec<CountingResult>,
    /// Wall-clock statistics of the shared pool that ran every
    /// replication; the individual [`CountingResult`]s carry `None`.
    pub throughput: Throughput,
}

impl CountingReplicationSummary {
    /// The merge of every replication's [`EvidenceLedger`] — the pooled
    /// evidence of the whole batch, ready for Eq. (1) verification or
    /// fleet burn-down. Deterministic: replication order is seed order.
    pub fn combined_evidence(&self) -> EvidenceLedger {
        let mut combined = EvidenceLedger::new();
        for result in &self.results {
            combined.merge(&result.evidence);
        }
        combined
    }
}

/// Equality covers the simulated outcomes only, never the throughput.
impl PartialEq for CountingReplicationSummary {
    fn eq(&self, other: &Self) -> bool {
        self.replications == other.replications
            && self.encounter_rate == other.encounter_rate
            && self.hard_brake_rate == other.hard_brake_rate
            && self.incident_count == other.incident_count
            && self.incident_rates == other.incident_rates
            && self.results == other.results
    }
}

impl fmt::Display for CountingReplicationSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} counting replications: incidents {:.3} ± {:.3}, encounters {:.3} ± {:.3}/h",
            self.replications,
            self.incident_count.mean(),
            self.incident_count.std_dev(),
            self.encounter_rate.mean(),
            self.encounter_rate.std_dev(),
        )
    }
}

impl fmt::Display for CampaignResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} over {}: {} encounters, {} hard-brake demands, mean cruise {:.1} km/h",
            self.policy_name,
            self.records.len(),
            self.exposure,
            self.encounters,
            self.hard_brake_demands,
            self.mean_cruise_kmh
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CautiousPolicy, ReactivePolicy};
    use crate::scenario::{mixed_scenario, urban_scenario};

    fn h(x: f64) -> Hours {
        Hours::new(x).unwrap()
    }

    #[test]
    fn campaign_is_deterministic() {
        let run = || {
            Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
                .hours(h(50.0))
                .seed(11)
                .workers(3)
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn result_is_bit_identical_for_any_worker_count() {
        let run = |workers| {
            Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
                .hours(h(130.0))
                .seed(11)
                .workers(workers)
                .run()
                .unwrap()
        };
        let reference = run(1);
        for workers in [2, 7, default_workers()] {
            let other = run(workers);
            assert_eq!(reference, other, "workers={workers}");
            // f64 fields must match to the bit, not merely within epsilon.
            assert_eq!(
                reference.mean_cruise_kmh.to_bits(),
                other.mean_cruise_kmh.to_bits(),
                "workers={workers}"
            );
            assert_eq!(
                reference.exposure().value().to_bits(),
                other.exposure().value().to_bits(),
                "workers={workers}"
            );
            for zone in reference.zones() {
                assert_eq!(
                    reference.zone_exposure(zone).value().to_bits(),
                    other.zone_exposure(zone).value().to_bits(),
                    "workers={workers} zone={zone}"
                );
            }
        }
    }

    #[test]
    fn replications_are_bit_identical_for_any_worker_count() {
        let run = |workers| {
            Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
                .hours(h(45.0))
                .seed(21)
                .workers(workers)
                .run_replications(3)
                .unwrap()
        };
        let reference = run(1);
        for workers in [2, 7, default_workers()] {
            assert_eq!(reference, run(workers), "workers={workers}");
        }
    }

    #[test]
    fn counting_matches_recording_classification() {
        let classification = qrn_core::examples::paper_classification().unwrap();
        let campaign = || {
            Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
                .hours(h(120.0))
                .seed(13)
                .workers(5)
        };
        let recorded = campaign().run().unwrap();
        let evidence = recorded.evidence(&classification);
        let counted = campaign().run_counting(&classification).unwrap();
        assert_eq!(counted.exposure(), recorded.exposure());
        for leaf in classification.leaves() {
            let kind = leaf.id().as_str();
            assert_eq!(counted.evidence.count(kind), evidence.count(kind), "{kind}");
        }
        assert_eq!(counted.evidence.unclassified(), evidence.unclassified());
        assert_eq!(counted.encounters, recorded.encounters);
        assert_eq!(counted.hard_brake_demands, recorded.hard_brake_demands);
        assert_eq!(counted.mean_cruise_kmh, recorded.mean_cruise_kmh);
        assert_eq!(
            counted.records_per_shift.count() as u64,
            recorded.throughput.as_ref().unwrap().shifts
        );
        let counted_records =
            counted.records_per_shift.mean() * counted.records_per_shift.count() as f64;
        assert!((counted_records - recorded.records.len() as f64).abs() < 1e-6);
    }

    #[test]
    fn counting_is_independent_of_worker_count() {
        let classification = qrn_core::examples::paper_classification().unwrap();
        let run = |workers| {
            Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
                .hours(h(90.0))
                .seed(17)
                .workers(workers)
                .run_counting(&classification)
                .unwrap()
        };
        let reference = run(1);
        for workers in [2, 7, default_workers()] {
            assert_eq!(reference, run(workers), "workers={workers}");
        }
    }

    #[test]
    fn throughput_reports_the_work_done() {
        let result = Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
            .hours(h(80.0))
            .seed(9)
            .workers(2)
            .run()
            .unwrap();
        let t = result.throughput.as_ref().expect("run() owns its pool");
        assert_eq!(t.shifts, 8);
        assert!((t.sim_hours - 80.0).abs() < 1e-9);
        assert_eq!(t.workers, 2);
        assert_eq!(t.per_worker.len(), 2);
        assert_eq!(t.per_worker.iter().map(|w| w.shifts).sum::<u64>(), 8);
        assert!(t.wall_seconds > 0.0);
        assert!(t.sim_hours_per_second > 0.0);
        assert!(t.to_string().contains("workers"));
    }

    #[test]
    fn exposure_accumulates_to_requested_hours() {
        let result = Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
            .hours(h(37.5))
            .seed(1)
            .run()
            .unwrap();
        assert!((result.exposure().value() - 37.5).abs() < 1e-6);
    }

    #[test]
    fn encounter_rate_matches_exposure_model_scale() {
        // Urban: pedestrians ~2/h (8x in school), leads ~1/h, so the
        // encounter rate should land in the low single digits per hour.
        let result = Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
            .hours(h(300.0))
            .seed(2)
            .run()
            .unwrap();
        let rate = result.encounter_rate().unwrap().as_per_hour();
        assert!((1.0..10.0).contains(&rate), "rate={rate}");
    }

    #[test]
    fn cautious_policy_demands_less_hard_braking_than_reactive() {
        let config = mixed_scenario().unwrap();
        let cautious = Campaign::new(config.clone(), CautiousPolicy::default())
            .hours(h(300.0))
            .seed(3)
            .run()
            .unwrap();
        let reactive = Campaign::new(config, ReactivePolicy::default())
            .hours(h(300.0))
            .seed(3)
            .run()
            .unwrap();
        let c = cautious.hard_brake_rate().unwrap().as_per_hour();
        let r = reactive.hard_brake_rate().unwrap().as_per_hour();
        assert!(
            c < r,
            "cautious {c}/h should demand less hard braking than reactive {r}/h"
        );
    }

    #[test]
    fn cautious_policy_collides_less() {
        use qrn_core::incident::IncidentKind;
        let config = mixed_scenario().unwrap();
        let collisions = |result: &CampaignResult| {
            result
                .records
                .iter()
                .filter(|r| matches!(r.kind, IncidentKind::Collision { .. }))
                .count()
        };
        let cautious = Campaign::new(config.clone(), CautiousPolicy::default())
            .hours(h(400.0))
            .seed(4)
            .run()
            .unwrap();
        let reactive = Campaign::new(config, ReactivePolicy::default())
            .hours(h(400.0))
            .seed(4)
            .run()
            .unwrap();
        assert!(
            collisions(&cautious) <= collisions(&reactive),
            "cautious {} vs reactive {}",
            collisions(&cautious),
            collisions(&reactive)
        );
    }

    #[test]
    fn classified_evidence_flows_into_core() {
        let c = qrn_core::examples::paper_classification().unwrap();
        let result = Campaign::new(urban_scenario().unwrap(), ReactivePolicy::default())
            .hours(h(200.0))
            .seed(5)
            .run()
            .unwrap();
        let evidence = result.evidence(&c);
        assert_eq!(evidence.exposure(), result.exposure().value());
        // raw events are at least as many as classified incidents
        assert!(evidence.incident_observations() as usize <= result.records.len());
    }

    #[test]
    fn replications_vary_and_summarise() {
        let summary = Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
            .hours(h(40.0))
            .seed(30)
            .run_replications(5)
            .unwrap();
        assert_eq!(summary.replications, 5);
        assert_eq!(summary.results.len(), 5);
        // Different seeds produce different outcomes...
        assert!(summary.raw_record_count.sample_variance() > 0.0);
        // ...whose spread matches a Poisson-ish scale (std << mean).
        assert!(summary.encounter_rate.std_dev() < summary.encounter_rate.mean());
        // The first replication equals a plain run with the same seed.
        let single = Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
            .hours(h(40.0))
            .seed(30)
            .run()
            .unwrap();
        assert_eq!(summary.results[0], single);
        assert!(summary.to_string().contains("5 replications"));
        // The shared pool's throughput covers all replications at once,
        // so it lives on the summary only; attaching it to individual
        // results would overstate their work n-fold.
        assert!(summary.results.iter().all(|r| r.throughput.is_none()));
        assert_eq!(summary.throughput.shifts, 5 * 4);
        assert!(single.throughput.is_some());
    }

    #[test]
    fn zero_replications_is_an_error() {
        let err = Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
            .hours(h(10.0))
            .run_replications(0);
        assert!(err.is_err());
    }

    #[test]
    fn counting_replications_match_recorded_replications() {
        let c = qrn_core::examples::paper_classification().unwrap();
        let campaign = || {
            Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
                .hours(h(40.0))
                .seed(30)
        };
        let counting = campaign().run_replications_counting(&c, 5).unwrap();
        assert_eq!(counting.replications, 5);
        assert_eq!(counting.results.len(), 5);
        assert!(counting.results.iter().all(|r| r.throughput.is_none()));
        assert_eq!(counting.throughput.shifts, 5 * 4);
        assert!(counting.to_string().contains("5 counting replications"));
        // Every leaf of the classification has a spread entry with one
        // sample per replication — even never-observed types.
        assert_eq!(counting.incident_rates.len(), c.leaves().len());
        for stats in counting.incident_rates.values() {
            assert_eq!(stats.count(), 5);
        }
        // Replication by replication, the streamed counts equal
        // classifying the recorded campaign's records after the fact.
        let recorded = campaign().run_replications(5).unwrap();
        for (count_rep, record_rep) in counting.results.iter().zip(&recorded.results) {
            let evidence = record_rep.evidence(&c);
            for leaf in c.leaves() {
                let kind = leaf.id().as_str();
                assert_eq!(count_rep.evidence.count(kind), evidence.count(kind));
            }
            assert_eq!(count_rep.evidence.unclassified(), evidence.unclassified());
            assert_eq!(count_rep.encounters, record_rep.encounters);
        }
        // The headline spreads agree with the recorded engine's.
        assert_eq!(counting.encounter_rate, recorded.encounter_rate);
        assert_eq!(counting.hard_brake_rate, recorded.hard_brake_rate);
    }

    #[test]
    fn counting_replications_are_worker_count_independent() {
        let c = qrn_core::examples::paper_classification().unwrap();
        let run = |workers| {
            Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
                .hours(h(60.0))
                .seed(8)
                .workers(workers)
                .run_replications_counting(&c, 3)
                .unwrap()
        };
        assert_eq!(run(1), run(7));
    }

    #[test]
    fn zero_counting_replications_is_an_error() {
        let c = qrn_core::examples::paper_classification().unwrap();
        let err = Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
            .hours(h(10.0))
            .run_replications_counting(&c, 0);
        assert!(err.is_err());
    }

    #[test]
    fn counting_evidence_rows_partition_the_campaign() {
        let c = qrn_core::examples::paper_classification().unwrap();
        let result = Campaign::new(mixed_scenario().unwrap(), ReactivePolicy::default())
            .hours(h(200.0))
            .seed(13)
            .run_counting(&c)
            .unwrap();
        let ev = &result.evidence;
        // Global row: exact unit-weight counts over the exact exposure.
        assert_eq!(ev.exposure().to_bits(), result.exposure().value().to_bits());
        for leaf in c.leaves() {
            let count = ev.count(leaf.id().as_str());
            assert!(count.is_unweighted(), "{}", leaf.id());
        }
        // Zone refinement rows partition the exposure and the counts.
        let zone_exposure: f64 = ev
            .named_contexts()
            .map(|(_, row)| row.exposure_hours())
            .sum();
        assert!((zone_exposure - result.exposure().value()).abs() < 1e-6);
        for leaf in c.leaves() {
            let zone_sum: u64 = ev
                .named_contexts()
                .map(|(_, row)| row.count(leaf.id().as_str()).observations())
                .sum();
            let global = ev.count(leaf.id().as_str()).observations();
            assert_eq!(zone_sum, global, "{}", leaf.id());
        }
        let zone_unclassified: u64 = ev
            .named_contexts()
            .map(|(_, row)| row.unclassified().observations())
            .sum();
        assert_eq!(zone_unclassified, ev.unclassified().observations());
    }

    #[test]
    fn recording_evidence_matches_counting_global_row() {
        let c = qrn_core::examples::paper_classification().unwrap();
        let campaign = || {
            Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
                .hours(h(120.0))
                .seed(13)
                .workers(5)
        };
        let recorded = campaign().run().unwrap().evidence(&c);
        let counted = campaign().run_counting(&c).unwrap().evidence;
        assert_eq!(recorded.exposure().to_bits(), counted.exposure().to_bits());
        for kind in counted.kinds() {
            assert_eq!(
                recorded.count(kind).observations(),
                counted.count(kind).observations(),
                "{kind}"
            );
        }
        assert_eq!(
            recorded.unclassified().observations(),
            counted.unclassified().observations()
        );
    }

    #[test]
    fn replication_evidence_merges_across_seeds() {
        let c = qrn_core::examples::paper_classification().unwrap();
        let summary = Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
            .hours(h(40.0))
            .seed(30)
            .run_replications_counting(&c, 3)
            .unwrap();
        let combined = summary.combined_evidence();
        assert!((combined.exposure() - 120.0).abs() < 1e-9);
        for leaf in c.leaves() {
            let per_rep: u64 = summary
                .results
                .iter()
                .map(|r| r.evidence.count(leaf.id().as_str()).observations())
                .sum();
            assert_eq!(combined.count(leaf.id().as_str()).observations(), per_rep);
        }
        // Eq. (1) verification consumes the pooled ledger directly.
        let norm = qrn_core::examples::paper_norm().unwrap();
        let allocation = qrn_core::examples::paper_allocation(&c).unwrap();
        let report = qrn_core::verification::verify(&norm, &allocation, &combined, 0.95).unwrap();
        assert_eq!(report.goals.len(), allocation.budgets().count());
    }

    #[test]
    fn per_zone_exposure_sums_to_total() {
        let result = Campaign::new(mixed_scenario().unwrap(), CautiousPolicy::default())
            .hours(h(100.0))
            .seed(6)
            .run()
            .unwrap();
        let total: f64 = result
            .zones()
            .map(|z| result.zone_exposure(z).value())
            .sum();
        assert!((total - result.exposure().value()).abs() < 1e-6);
        // dwell ratios respected: highway 0.3 vs residential 0.2 of each cycle
        let highway = result.zone_exposure("highway").value();
        let residential = result.zone_exposure("residential").value();
        assert!((highway / residential - 1.5).abs() < 0.05);
    }

    #[test]
    fn zone_encounter_rates_reflect_the_exposure_model() {
        // In the mixed scenario the school zone does not exist but the
        // residential zone has base pedestrian pressure, while the highway
        // suppresses pedestrians (x0.01) but boosts leads, animals and
        // cut-ins. Net: both see encounters, but with different mixes —
        // and the *school* multiplier is testable in the urban scenario.
        let result = Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
            .hours(h(400.0))
            .seed(7)
            .run()
            .unwrap();
        let school = result.zone_encounter_rate("school").unwrap().as_per_hour();
        let residential = result
            .zone_encounter_rate("residential")
            .unwrap()
            .as_per_hour();
        // school zone: pedestrians at 8x -> encounter rate several times higher
        assert!(
            school > 3.0 * residential,
            "school {school}/h vs residential {residential}/h"
        );
        assert_eq!(result.zone_encounter_rate("nonexistent"), None);
    }

    #[test]
    fn zero_hours_is_an_error() {
        let err = Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
            .hours(Hours::ZERO)
            .run();
        assert!(err.is_err());
    }

    #[test]
    fn zero_workers_is_an_error() {
        let err = Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
            .workers(0)
            .run();
        match err {
            Err(UnitError::OutOfRange { quantity, .. }) => {
                assert_eq!(quantity, "campaign workers");
            }
            other => panic!("expected an out-of-range error, got {other:?}"),
        }
    }

    /// A million simulated hours through the counting path — streaming
    /// memory only. Run explicitly (release mode recommended):
    /// `cargo test -p qrn-sim --release -- --ignored million_hours`.
    #[test]
    #[ignore = "long-running scale demonstration"]
    fn million_hours_stream_through_counting() {
        let classification = qrn_core::examples::paper_classification().unwrap();
        let result = Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
            .hours(h(1_000_000.0))
            .seed(99)
            .run_counting(&classification)
            .unwrap();
        assert!((result.exposure().value() - 1_000_000.0).abs() < 1e-3);
        assert_eq!(
            result
                .throughput
                .as_ref()
                .expect("run_counting owns its pool")
                .shifts,
            100_000
        );
        assert!(result.evidence.incident_observations() > 0);
    }
}
