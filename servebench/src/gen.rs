//! Seeded input generation. Every batch is a pure function of the seed
//! and its index, so the reference check can regenerate exactly the
//! batches the server acknowledged without keeping them in memory.

use qrn_core::{IncidentRecord, Involvement, ObjectType};
use qrn_fleet::event::FleetEvent;
use qrn_units::{Hours, Speed};

/// SplitMix64: small, fast and good enough for workload shapes.
pub struct Rng(u64);

impl Rng {
    pub fn new(parts: &[u64]) -> Rng {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for part in parts {
            rng.0 ^= part.wrapping_mul(0xD1B5_4A32_D192_ED03);
            rng.next_u64();
        }
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Canonical ODD-band context keys (sorted `dim=value` pairs).
const BANDS: [&str; 8] = [
    "lighting=day,weather=clear,zone=urban",
    "lighting=day,weather=rain,zone=urban",
    "lighting=night,weather=clear,zone=urban",
    "lighting=day,weather=clear,zone=rural",
    "lighting=night,weather=fog,zone=rural",
    "lighting=day,weather=clear,zone=highway",
    "lighting=day,weather=rain,zone=highway",
    "lighting=night,weather=clear,zone=highway",
];

/// One line in four hundred is an incident report; the rest are exposure.
const INCIDENT_ONE_IN: u64 = 400;

/// Appends one canonical telemetry line. Exposure chunks are multiples of
/// 1/64 h, so every exposure sum is exact whatever the fold order.
fn push_line(out: &mut String, rng: &mut Rng, vehicle: &str, seq: Option<u64>, ctx: Option<&str>) {
    let event = if rng.below(INCIDENT_ONE_IN) == 0 {
        let kmh = [4.0, 12.0, 24.0, 36.0, 48.0][rng.below(5) as usize];
        FleetEvent::Incident {
            vehicle: vehicle.to_string(),
            record: IncidentRecord::collision(
                Involvement::ego_with(ObjectType::Vru),
                Speed::from_kmh(kmh).expect("positive speed"),
            ),
        }
    } else {
        let chunks = 1 + rng.below(32);
        FleetEvent::Exposure {
            vehicle: vehicle.to_string(),
            hours: Hours::new(chunks as f64 / 64.0).expect("positive hours"),
        }
    };
    event.render_line_meta_into(out, seq, ctx);
    out.push('\n');
}

/// Batch `index` of uploader `client` in `ingest_durable`: `lines` v2
/// lines over the uploader's own `fleet` vehicles, round-robin, so each
/// vehicle's `seq` is a function of the batch index alone.
pub fn uploader_batch(seed: u64, client: u64, index: u64, fleet: u64, lines: u64) -> String {
    banded_batch(
        &[seed, 1, client, index],
        &format!("u{client}-"),
        index,
        fleet,
        lines,
    )
}

/// Batch `index` of the `audit_replay` history.
pub fn audit_batch(seed: u64, index: u64, fleet: u64, lines: u64) -> String {
    banded_batch(&[seed, 2, index], "a-", index, fleet, lines)
}

fn banded_batch(parts: &[u64], prefix: &str, index: u64, fleet: u64, lines: u64) -> String {
    assert_eq!(
        lines % fleet,
        0,
        "each vehicle reports equally often per batch"
    );
    let per_vehicle = lines / fleet;
    let mut rng = Rng::new(parts);
    let mut out = String::with_capacity(lines as usize * 120);
    for j in 0..lines {
        let vehicle = format!("{prefix}{:04}", j % fleet);
        let seq = index * per_vehicle + j / fleet + 1;
        let band = BANDS[rng.below(BANDS.len() as u64) as usize];
        push_line(&mut out, &mut rng, &vehicle, Some(seq), Some(band));
    }
    out
}

/// Vehicle id of fleet-scale vehicle `i`.
pub fn fleet_vehicle(i: u64) -> String {
    format!("f{i:07}")
}

/// Preload post `chunk`: one ctx-less v1 exposure line for each of
/// vehicles `[chunk * per_post, ...)` (capped at `fleet`).
pub fn preload_post(seed: u64, chunk: u64, per_post: u64, fleet: u64) -> String {
    let mut rng = Rng::new(&[seed, 3, chunk]);
    let start = chunk * per_post;
    let end = (start + per_post).min(fleet);
    let mut out = String::with_capacity((end - start) as usize * 64);
    for i in start..end {
        push_line(&mut out, &mut rng, &fleet_vehicle(i), None, None);
    }
    out
}

/// Re-report segment `index` of the open-loop stream: `lines` v1 lines
/// for vehicles drawn uniformly from the preloaded fleet.
pub fn stream_segment(seed: u64, index: u64, fleet: u64, lines: u64) -> String {
    let mut rng = Rng::new(&[seed, 4, index]);
    let mut out = String::with_capacity(lines as usize * 64);
    for _ in 0..lines {
        let vehicle = fleet_vehicle(rng.below(fleet));
        push_line(&mut out, &mut rng, &vehicle, None, None);
    }
    out
}

/// Ingest-probe batch `index`: `lines` unsequenced v2 lines from a
/// sixteen-vehicle probe fleet.
pub fn probe_batch(seed: u64, index: u64, lines: u64) -> String {
    let mut rng = Rng::new(&[seed, 5, index]);
    let mut out = String::with_capacity(lines as usize * 120);
    for j in 0..lines {
        let vehicle = format!("probe-{:02}", j % 16);
        let band = BANDS[rng.below(BANDS.len() as u64) as usize];
        push_line(&mut out, &mut rng, &vehicle, None, Some(band));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrn_fleet::event::fastpath::{parse_line_hybrid, ParsedLine};

    #[test]
    fn generated_lines_take_the_fast_path() {
        for text in [
            uploader_batch(7, 1, 3, 64, 256),
            audit_batch(7, 5, 64, 256),
            preload_post(7, 2, 100, 1000),
            stream_segment(7, 9, 1000, 256),
            probe_batch(7, 4, 16),
        ] {
            for line in text.lines() {
                assert!(
                    matches!(parse_line_hybrid(line), ParsedLine::Fast(..)),
                    "{line}"
                );
            }
        }
    }

    #[test]
    fn batches_are_a_function_of_seed_and_index() {
        assert_eq!(
            uploader_batch(1, 0, 2, 64, 256),
            uploader_batch(1, 0, 2, 64, 256)
        );
        assert_ne!(
            uploader_batch(1, 0, 2, 64, 256),
            uploader_batch(2, 0, 2, 64, 256)
        );
    }
}
