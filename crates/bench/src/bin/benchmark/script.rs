//! The update script: a fixed, seeded list of calls that the stream and serve
//! phases replay. A pure function of `(lake, mix, calls, plan, seed)`.
//!
//! The generator applies every update it emits to a shadow copy of the lake,
//! so a script never addresses a dataset it has already dropped and every
//! `AddDataset` lands on the id a replay will assign. Targets come off a
//! shuffled round-robin queue and kinds off a shuffled wheel of twenty slots,
//! so every dataset is touched about equally often in the workload's
//! proportions.
//!
//! Two random streams drive it. The **plan** — which kind of update hits
//! which dataset, in which order, and which rows a new dataset copies —
//! belongs to the workload: on a lake whose datasets differ, one dropped root
//! costs as much as fifty appends, and with `--seed` picking the targets
//! `updates_per_s` spread 41 % over ten seeds on `enterprise_churn` and
//! `restore_ms` 32 % on `chains_confirm`, past any bound the benchmark may
//! declare; picking only the copied rows still spread `updates_per_s` 13 %.
//! The **seed** picks the rows an append repeats and the value a delete
//! matches (2 %).

use crate::layers::{
    AccessProfile, DataLake, DatasetId, LakeUpdate, Meter, PartitionedTable, Predicate, Table,
    Value,
};
use crate::workloads::{Kind, StreamMix};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Rows one `AppendRows` adds.
const APPEND_ROWS: usize = 8;

pub struct Script {
    /// One entry per call: one update drives `apply`, more drive
    /// `apply_batch` (or one submitted batch).
    pub calls: Vec<Vec<LakeUpdate>>,
    /// Datasets some call drops; readers must not be sent to them.
    pub dropped: BTreeSet<DatasetId>,
}

impl Script {
    pub fn updates(&self) -> usize {
        self.calls.iter().map(Vec::len).sum()
    }

    /// FNV-1a over each update's kind, target, size and first row or
    /// predicate: changes whenever the generator, the mix, the seed or the
    /// lake under it changes.
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for call in &self.calls {
            mix(&call.len().to_le_bytes());
            for update in call {
                match update {
                    LakeUpdate::AddDataset { name, data, .. } => {
                        mix(b"add");
                        mix(name.as_bytes());
                        mix(&data.num_rows().to_le_bytes());
                    }
                    LakeUpdate::AppendRows { id, rows } => {
                        mix(b"append");
                        mix(&id.0.to_le_bytes());
                        mix(&rows.num_rows().to_le_bytes());
                        mix(format!("{:?}", rows.row(0)).as_bytes());
                    }
                    LakeUpdate::DeleteRows { id, predicate } => {
                        mix(b"delete");
                        mix(&id.0.to_le_bytes());
                        mix(format!("{predicate:?}").as_bytes());
                    }
                    LakeUpdate::DropDataset { id } => {
                        mix(b"drop");
                        mix(&id.0.to_le_bytes());
                    }
                }
            }
        }
        h
    }
}

/// Shuffled round-robin over the live datasets of one pool.
struct Rotation {
    queue: Vec<DatasetId>,
}

impl Rotation {
    fn next(
        &mut self,
        pool: impl Fn(&DataLake) -> Vec<DatasetId>,
        shadow: &DataLake,
        rng: &mut SmallRng,
    ) -> DatasetId {
        loop {
            match self.queue.pop() {
                Some(id) if shadow.contains(id) => return id,
                Some(_) => {}
                None => {
                    self.queue = pool(shadow);
                    assert!(!self.queue.is_empty(), "the script emptied its target pool");
                    self.queue.shuffle(rng);
                }
            }
        }
    }
}

fn first_non_null(table: &Table, column: &str, from: usize) -> Option<Value> {
    let values = table.column(column).ok()?.values();
    (0..values.len())
        .map(|i| &values[(from + i) % values.len()])
        .find(|v| !matches!(v, Value::Null))
        .cloned()
}

/// Build `calls` calls of `mix.batch` updates each against `lake`. `parents`
/// are the datasets with children in the constructed graph (used when the
/// mix shrinks parents). `plan` seeds the choice of kinds, targets and copied
/// rows, `seed` the choice of appended rows and deleted values.
pub fn build(
    lake: &DataLake,
    parents: &[DatasetId],
    mix: &StreamMix,
    calls: usize,
    plan: u64,
    seed: u64,
) -> Script {
    let mut shadow = lake.clone();
    let floor = lake.len() / 2;
    let mut plan = SmallRng::seed_from_u64(plan);
    let mut rng = SmallRng::seed_from_u64(seed);
    let meter = Meter::new();
    let mut wheel: Vec<Kind> = mix
        .twentieths
        .iter()
        .flat_map(|&(kind, slots)| std::iter::repeat_n(kind, slots))
        .collect();
    assert_eq!(wheel.len(), 20, "a stream mix is stated in twentieths");
    let mut any = Rotation { queue: Vec::new() };
    let mut parent = Rotation { queue: Vec::new() };
    let live_parents = |shadow: &DataLake| -> Vec<DatasetId> {
        let live: Vec<DatasetId> = parents
            .iter()
            .copied()
            .filter(|&id| shadow.contains(id))
            .collect();
        if live.is_empty() {
            shadow.ids()
        } else {
            live
        }
    };

    let mut script = Script {
        calls: Vec::with_capacity(calls),
        dropped: BTreeSet::new(),
    };
    let mut emitted = 0usize;
    for _ in 0..calls {
        let mut batch = Vec::with_capacity(mix.batch);
        for _ in 0..mix.batch {
            if emitted.is_multiple_of(wheel.len()) {
                wheel.shuffle(&mut plan);
            }
            let mut kind = wheel[emitted % wheel.len()];
            // Keep at least half the lake: a drop past that becomes an add.
            if kind == Kind::Drop && shadow.len() <= floor {
                kind = Kind::Add;
            }
            let shrink = matches!(kind, Kind::Delete | Kind::Drop);
            let id = if shrink && mix.shrink_parents {
                parent.next(live_parents, &shadow, &mut plan)
            } else {
                any.next(DataLake::ids, &shadow, &mut plan)
            };
            let entry = shadow
                .dataset(id)
                .expect("target is live in the shadow lake");
            let table = entry.data.to_table(&meter).expect("materialise the target");
            let rows = table.num_rows();
            // Which rows a new dataset copies decides which edges it brings,
            // and with that every later verification: the plan's. Which rows
            // an append repeats and which value a delete matches: the seed's.
            let (planned, seeded) = if rows == 0 {
                (0, 0)
            } else {
                (plan.gen_range(0..rows), rng.gen_range(0..rows))
            };
            let slice = |from: usize, len: usize| -> Table {
                let picked: Vec<usize> = (0..len.min(rows)).map(|i| (from + i) % rows).collect();
                table.take(&picked).expect("rows of the target")
            };
            let update = match kind {
                Kind::Drop => LakeUpdate::DropDataset { id },
                Kind::Add => LakeUpdate::AddDataset {
                    name: format!("bench/added{emitted}"),
                    data: PartitionedTable::from_table(
                        slice(planned, rows / 2),
                        entry.data.spec().clone(),
                    )
                    .expect("partition the added subset"),
                    access: AccessProfile::default(),
                    lineage: None,
                },
                Kind::Delete if rows >= 2 => {
                    let column = table.schema().names()[0].to_string();
                    match first_non_null(&table, &column, seeded) {
                        Some(value) => LakeUpdate::DeleteRows {
                            id,
                            predicate: Predicate::eq(column, value),
                        },
                        None => LakeUpdate::AppendRows {
                            id,
                            rows: slice(seeded, APPEND_ROWS),
                        },
                    }
                }
                Kind::Delete | Kind::Append => LakeUpdate::AppendRows {
                    id,
                    rows: slice(seeded, APPEND_ROWS),
                },
            };
            shadow
                .apply_update(&update)
                .expect("the script only addresses live datasets");
            if let LakeUpdate::DropDataset { id } = &update {
                script.dropped.insert(*id);
            }
            batch.push(update);
            emitted += 1;
        }
        script.calls.push(batch);
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;
    use crate::workloads::WORKLOADS;

    fn replayable(lake: &DataLake, script: &Script) {
        let mut replay = lake.clone();
        for update in script.calls.iter().flatten() {
            replay
                .apply_update(update)
                .expect("script addressed a dropped or unknown dataset");
        }
    }

    /// Kind and target of every update (an added dataset has no target yet).
    fn targets(script: &Script) -> Vec<(u8, Option<DatasetId>)> {
        script
            .calls
            .iter()
            .flatten()
            .map(|u| match u {
                LakeUpdate::AddDataset { .. } => (0, None),
                LakeUpdate::AppendRows { id, .. } => (1, Some(*id)),
                LakeUpdate::DeleteRows { id, .. } => (2, Some(*id)),
                LakeUpdate::DropDataset { id } => (3, Some(*id)),
            })
            .collect()
    }

    #[test]
    fn script_is_a_pure_function_of_workload_and_seed_and_never_hits_a_dropped_dataset() {
        for w in &WORKLOADS {
            let corpus = layers::generate_corpus(&(w.corpus)(true)).unwrap();
            let parents = layers::datasets_with_children(&corpus.expected);
            let a = build(&corpus.lake, &parents, &w.mix, 30, 1, 7);
            let b = build(&corpus.lake, &parents, &w.mix, 30, 1, 7);
            let c = build(&corpus.lake, &parents, &w.mix, 30, 1, 8);
            let d = build(&corpus.lake, &parents, &w.mix, 30, 2, 7);
            assert_eq!(a.calls, b.calls, "{}: same seed, same script", w.name);
            assert_eq!(a.hash(), b.hash());
            assert_ne!(a.calls, c.calls, "{}: another seed, another script", w.name);
            assert_ne!(a.hash(), c.hash());
            assert_eq!(a.calls.len(), 30);
            assert_eq!(a.updates(), 30 * w.mix.batch);
            // Another seed changes what the updates carry, not which kind
            // hits which dataset; another plan changes that too.
            assert_eq!(targets(&a), targets(&c), "{}", w.name);
            assert_ne!(targets(&a), targets(&d), "{}", w.name);
            replayable(&corpus.lake, &a);
            replayable(&corpus.lake, &c);
            replayable(&corpus.lake, &d);
            // Every kind the mix weighs shows up, and drops are recorded.
            let drops = a
                .calls
                .iter()
                .flatten()
                .filter(|u| matches!(u, LakeUpdate::DropDataset { .. }))
                .count();
            assert_eq!(drops, a.dropped.len());
        }
    }

    #[test]
    fn shrinking_mixes_aim_deletes_and_drops_at_parents() {
        let w = crate::workloads::by_name("chains_confirm").unwrap();
        let corpus = layers::generate_corpus(&(w.corpus)(true)).unwrap();
        let parents = layers::datasets_with_children(&corpus.expected);
        let script = build(&corpus.lake, &parents, &w.mix, 40, 1, 3);
        for update in script.calls.iter().flatten() {
            if let LakeUpdate::DeleteRows { id, .. } | LakeUpdate::DropDataset { id } = update {
                assert!(parents.contains(id), "{id} has no children");
            }
        }
    }
}
