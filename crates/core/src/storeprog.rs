//! The store-backed PayloadPark program.
//!
//! [`crate::program::build_primary`] wires the park table into per-stage
//! register arrays — the faithful ASIC model. This module builds the
//! *same* match-action program (same gateways, same counters, same trace
//! flags, same length arithmetic, same stage placement) with the park
//! table behind a [`FlowStore`] instead: `split_probe`, `merge_validate`,
//! `split_store_j` and `merge_load_j` drive a captured [`SharedStore`]
//! rather than register cells. Everything a packet can observe — bytes
//! out, counters, traces — is identical by construction; the
//! `flowstore_matrix` integration test pins that over the full adversity
//! matrix.
//!
//! What the swap buys:
//!
//! * capacity decoupled from the register file — a [`SlabStore`] scales
//!   the same semantics to millions of concurrent flows;
//! * slot space decoupled from the switch — a cluster switch addresses
//!   its slices at their *parent* (global) coordinates
//!   ([`build_store_switch_with_bases`]), so a flow's wire tag stays
//!   valid when its slice migrates to another switch;
//! * an external store handle — parked flows survive a pipeline rebuild
//!   (switch join/leave) and can be lifted out/in for migration.
//!
//! Taggers stay register-backed: their `ti`/`clk` sequences are the
//! per-slice state that makes two builds byte-identical, and the control
//! plane migrates them explicitly ([`StoreControl::tagger_state`]).
//! Recirculation (annex) is not supported in store mode.
//!
//! [`SlabStore`]: crate::flowstore::SlabStore

use crate::config::{ParkConfig, PipePark};
use crate::counters::CounterSnapshot;
use crate::counters::{
    COUNTER_NAMES, C_CRC_FAIL, C_DISABLED_OCCUPIED, C_DISABLED_SMALL_PAYLOAD, C_DUP_MERGE,
    C_ENB0_FROM_SERVER, C_EVICTIONS, C_EXPLICIT_DROPS, C_MERGES, C_PREMATURE_EVICTIONS, C_SPLITS,
};
use crate::flowstore::{FlowStore, MergeOutcome, ParkTag, SharedStore};
use crate::program::{
    apply_len_delta, gateway_footprint, len_delta_effects, m, primary_block_stage,
    restored_checksum, tuple_sum, BuildError, MAX_CLK, META_CLK, META_MERGE_OK, META_SLICE,
    META_SPLIT_OK, META_TBL_IDX, META_XSUM, PP_LEN,
};
use pp_packet::crc::tag_crc;
use pp_rmt::chip::PortSet;
use pp_rmt::mat::{Mat, MatFootprint, MatchKind};
use pp_rmt::parser::{BlockRule, ParserConfig};
use pp_rmt::phv::{Phv, BLOCK_BYTES};
use pp_rmt::pipeline::Pipeline;
use pp_rmt::register::{cell, RegisterId, RegisterSpec};
use pp_rmt::summary::{BranchSummary, MatSummary, Req, Slot};
use pp_rmt::switch::SwitchModel;
use pp_rmt::trace::decision;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::{Arc, MutexGuard};

/// Control-plane handles for a store-backed pipe.
#[derive(Clone)]
pub struct StoreHandles {
    /// The pipe index.
    pub pipe: usize,
    /// The store's slot space (parent/global coordinates).
    pub total_slots: usize,
    /// Live expiry threshold, same contract as the register program's.
    pub expiry: Arc<AtomicU16>,
    /// The park table.
    pub store: SharedStore,
    /// Tagger table-index register (one cell per slice, config order).
    pub ti_reg: RegisterId,
    /// Tagger generation-clock register (one cell per slice).
    pub clk_reg: RegisterId,
    /// Slice names in config (register-cell) order.
    pub slices: Vec<String>,
}

fn lock(store: &SharedStore) -> MutexGuard<'_, dyn FlowStore + 'static> {
    store.lock().expect("flow store lock poisoned")
}

/// Builds the store-backed primary program for one pipe. `bases[i]` is
/// slice `i`'s first slot in the store's (global) coordinate space; for a
/// standalone switch that is the cumulative layout the register program
/// uses, for a cluster switch it is the parent deployment's layout.
pub fn build_store_primary(
    cfg: &ParkConfig,
    pipe_cfg: &PipePark,
    bases: &[u32],
    store: SharedStore,
) -> Result<(Pipeline, StoreHandles), BuildError> {
    let chip = cfg.chip;
    let n_slices = pipe_cfg.slices.len();
    if pipe_cfg.annex_pipe.is_some() {
        return Err(BuildError::Config(
            "store-backed deployments do not support recirculation (annex)".into(),
        ));
    }
    if bases.len() != n_slices {
        return Err(BuildError::Config(format!(
            "{} slice bases for {n_slices} slices",
            bases.len()
        )));
    }
    let store_slots = {
        let s = lock(&store);
        if s.blocks() != cfg.primary_blocks {
            return Err(BuildError::Config(format!(
                "store holds {} payload blocks per slot, deployment parks {}",
                s.blocks(),
                cfg.primary_blocks
            )));
        }
        s.slots()
    };
    for (slice, &base) in pipe_cfg.slices.iter().zip(bases) {
        if base as usize + slice.slots > store_slots {
            return Err(BuildError::Config(format!(
                "slice '{}' spans slots {}..{} but the store holds {}",
                slice.name,
                base,
                base as usize + slice.slots,
                store_slots
            )));
        }
    }

    // Parser: identical to the register program.
    let mut parser = ParserConfig { phv_block_capacity: cfg.primary_blocks, ..Default::default() };
    let min_payload = cfg.min_split_payload(pipe_cfg);
    for slice in &pipe_cfg.slices {
        for &p in &slice.split_ports {
            parser.block_rules.insert(p, BlockRule { blocks: cfg.primary_blocks, min_payload });
        }
        for &p in &slice.merge_ports {
            parser.pp_header_ports.insert(p);
        }
    }

    let mut b = Pipeline::builder(chip).parser(parser);
    for name in COUNTER_NAMES {
        let _ = b.counter(name);
    }

    let split_ports: Arc<PortSet> =
        Arc::new(pipe_cfg.slices.iter().flat_map(|s| s.split_ports.iter().copied()).collect());
    let merge_ports: Arc<PortSet> =
        Arc::new(pipe_cfg.slices.iter().flat_map(|s| s.merge_ports.iter().copied()).collect());
    let max_port = pipe_cfg
        .slices
        .iter()
        .flat_map(|s| s.split_ports.iter().copied())
        .max()
        .map_or(0, usize::from);
    let mut slice_of_port = vec![0u32; max_port + 1];
    let mut geom_of_port: Vec<Option<(usize, u32, u32)>> = vec![None; max_port + 1];
    for (idx, slice) in pipe_cfg.slices.iter().enumerate() {
        for &p in &slice.split_ports {
            slice_of_port[usize::from(p)] = idx as u32 + 1;
            geom_of_port[usize::from(p)] = Some((idx, bases[idx], slice.slots as u32));
        }
    }
    let slice_of_port = Arc::new(slice_of_port);
    let geom_of_port = Arc::new(geom_of_port);

    // Taggers stay register-backed: their per-slice sequences are the
    // state that keeps builds byte-identical and migrates on rebalance.
    let ti_reg = b.register(RegisterSpec {
        name: "tagger_ti".into(),
        stage: 0,
        cell_bytes: 4,
        cells: n_slices,
    });
    let clk_reg = b.register(RegisterSpec {
        name: "tagger_clk".into(),
        stage: 0,
        cell_bytes: 4,
        cells: n_slices,
    });

    // --- Stage 0: slice select, disabled-header strip, taggers. These are
    // stateless w.r.t. the park table and match the register program
    // action for action.
    {
        let sp = split_ports.clone();
        let map = slice_of_port.clone();
        b.place(
            0,
            Mat::builder("slice_select")
                .gateway(move |p| sp.contains(p.ingress_port.0) && p.has_transport())
                .action(move |ctx| {
                    ctx.phv.meta[META_SLICE] =
                        map.get(usize::from(ctx.phv.ingress_port.0)).copied().unwrap_or(0);
                })
                .summary(
                    MatSummary::on_port_set((*split_ports).clone())
                        .require(Req::Valid(Slot::Transport))
                        .writes(m(META_SLICE)),
                )
                .footprint(MatFootprint {
                    match_kind: MatchKind::Ternary,
                    key_bits: 16,
                    vliw_slots: 1,
                    table_sram_bits: 0,
                    tcam_bits: 512 * 88,
                })
                .build(),
        );
    }
    {
        let mp = merge_ports.clone();
        b.place(
            0,
            Mat::builder("merge_strip_disabled")
                .gateway(move |p| p.pp.valid && !p.pp.enb && mp.contains(p.ingress_port.0))
                .action(|ctx| {
                    ctx.phv.pp.valid = false;
                    apply_len_delta(ctx.phv, -PP_LEN, ctx.counters);
                    ctx.counters[C_ENB0_FROM_SERVER] += 1;
                    ctx.phv.trace_flags |= decision::ENB0;
                })
                .summary(len_delta_effects(
                    MatSummary::on_port_set((*merge_ports).clone())
                        .require(Req::Valid(Slot::Pp))
                        .require(Req::PpEnb(false))
                        .sets_invalid(Slot::Pp),
                ))
                .footprint(gateway_footprint(18, 4))
                .build(),
        );
    }
    let splittable = {
        let sp = split_ports.clone();
        move |p: &Phv| sp.contains(p.ingress_port.0) && p.blocks.iter().any(|blk| blk.valid)
    };
    {
        let geom = geom_of_port.clone();
        let geom_idx = geom_of_port.clone();
        b.place(
            0,
            Mat::builder("tagger_ti")
                .gateway(splittable.clone())
                .stateful(ti_reg, move |p| {
                    geom_idx
                        .get(usize::from(p.ingress_port.0))
                        .copied()
                        .flatten()
                        .map(|(slice, _, _)| slice)
                })
                .action(move |ctx| {
                    let (_, slice_base, slice_size) = geom[usize::from(ctx.phv.ingress_port.0)]
                        .expect("splittable gateway implies a split port");
                    let cell_ref = ctx.cell.as_deref_mut().expect("ti bound");
                    let ti = (cell::read_u32(cell_ref) + 1) % slice_size;
                    cell::write_u32(cell_ref, ti);
                    ctx.phv.meta[META_TBL_IDX] = slice_base + ti;
                })
                .summary(
                    MatSummary::on_port_set((*split_ports).clone())
                        .require(Req::Valid(Slot::Blocks))
                        .writes(m(META_TBL_IDX)),
                )
                .footprint(gateway_footprint(20, 2))
                .build(),
        );
    }
    {
        let geom_idx = geom_of_port.clone();
        b.place(
            0,
            Mat::builder("tagger_clk")
                .gateway(splittable.clone())
                .stateful(clk_reg, move |p| {
                    geom_idx
                        .get(usize::from(p.ingress_port.0))
                        .copied()
                        .flatten()
                        .map(|(slice, _, _)| slice)
                })
                .action(|ctx| {
                    let cell_ref = ctx.cell.as_deref_mut().expect("clk bound");
                    let clk = (cell::read_u32(cell_ref) + 1) % MAX_CLK;
                    cell::write_u32(cell_ref, clk);
                    ctx.phv.meta[META_CLK] = clk;
                })
                .summary(
                    MatSummary::on_port_set((*split_ports).clone())
                        .require(Req::Valid(Slot::Blocks))
                        .writes(m(META_CLK)),
                )
                .footprint(gateway_footprint(20, 2))
                .build(),
        );
    }

    // --- Stage 1: probe / small-payload fallback / validate, against the
    // store instead of the metadata register array.
    let expiry = Arc::new(AtomicU16::new(cfg.expiry_threshold));
    {
        let max_exp = expiry.clone();
        let savings = cfg.primary_blocks as i32 * BLOCK_BYTES as i32 - PP_LEN;
        let st = store.clone();
        b.place(
            1,
            Mat::builder("split_probe")
                .gateway(splittable.clone())
                .action(move |ctx| {
                    let phv = &mut *ctx.phv;
                    let slot = phv.meta[META_TBL_IDX] as usize;
                    let clk = phv.meta[META_CLK] as u16;
                    let tag = ParkTag {
                        clk,
                        expiry: max_exp.load(Ordering::Relaxed),
                        xsum: phv.transport_checksum().unwrap_or(0),
                        tsum: tuple_sum(phv),
                    };
                    let outcome = lock(&st).probe(slot, tag);
                    if outcome.evicted {
                        ctx.counters[C_EVICTIONS] += 1;
                        phv.trace_flags |= decision::EVICT;
                    }
                    if outcome.parked {
                        let idx = phv.meta[META_TBL_IDX] as u16;
                        phv.pp.valid = true;
                        phv.pp.enb = true;
                        phv.pp.op_drop = false;
                        phv.pp.tbl_idx = idx;
                        phv.pp.clk = clk;
                        phv.pp.crc = tag_crc(idx, clk);
                        phv.meta[META_SPLIT_OK] = 1;
                        ctx.counters[C_SPLITS] += 1;
                        phv.trace_flags |= decision::SPLIT;
                        apply_len_delta(phv, -savings, ctx.counters);
                    } else {
                        phv.pp = Default::default();
                        phv.pp.valid = true;
                        ctx.counters[C_DISABLED_OCCUPIED] += 1;
                        phv.trace_flags |= decision::DISABLED_OCCUPIED;
                        apply_len_delta(phv, PP_LEN, ctx.counters);
                    }
                })
                .summary(
                    len_delta_effects(
                        MatSummary::on_port_set((*split_ports).clone())
                            .require(Req::Valid(Slot::Blocks))
                            .reads(m(META_TBL_IDX))
                            .reads(m(META_CLK))
                            .writes(Slot::Pp)
                            .sets_valid(Slot::Pp),
                    )
                    .branch(
                        BranchSummary::new("split").sets_enb(true).sets_flag(META_SPLIT_OK as u8),
                    )
                    .branch(BranchSummary::new("occupied").sets_enb(false)),
                )
                .footprint(gateway_footprint(52, 6))
                .build(),
        );
    }
    {
        let sp = split_ports.clone();
        b.place(
            1,
            Mat::builder("split_small")
                .gateway(move |p| {
                    sp.contains(p.ingress_port.0)
                        && p.has_transport()
                        && !p.blocks.iter().any(|blk| blk.valid)
                })
                .action(|ctx| {
                    ctx.phv.pp = Default::default();
                    ctx.phv.pp.valid = true;
                    ctx.counters[C_DISABLED_SMALL_PAYLOAD] += 1;
                    ctx.phv.trace_flags |= decision::DISABLED_SMALL;
                    apply_len_delta(ctx.phv, PP_LEN, ctx.counters);
                })
                .summary(len_delta_effects(
                    MatSummary::on_port_set((*split_ports).clone())
                        .require(Req::Valid(Slot::Transport))
                        .require(Req::Invalid(Slot::Blocks))
                        .writes(Slot::Pp)
                        .sets_valid(Slot::Pp)
                        .sets_enb(false),
                ))
                .footprint(gateway_footprint(20, 4))
                .build(),
        );
    }
    {
        let mp = merge_ports.clone();
        let restore_primary = cfg.primary_blocks as i32 * BLOCK_BYTES as i32;
        let st = store.clone();
        let slots_bound = store_slots;
        b.place(
            1,
            Mat::builder("merge_validate")
                .gateway(move |p| p.pp.valid && p.pp.enb && mp.contains(p.ingress_port.0))
                .action(move |ctx| {
                    let phv = &mut *ctx.phv;
                    let idx = usize::from(phv.pp.tbl_idx);
                    let crc_ok = tag_crc(phv.pp.tbl_idx, phv.pp.clk) == phv.pp.crc;
                    if !crc_ok || idx >= slots_bound {
                        // Corrupted or out-of-range tag: never touch the store.
                        ctx.counters[C_CRC_FAIL] += 1;
                        phv.trace_flags |= decision::CRC_FAIL;
                        phv.verdict.drop = true;
                        return;
                    }
                    match lock(&st).merge(idx, phv.pp.clk) {
                        MergeOutcome::Restored { xsum: stored_xsum, tsum: stored_tsum } => {
                            phv.meta[META_MERGE_OK] = 1;
                            phv.meta[META_TBL_IDX] = u32::from(phv.pp.tbl_idx);
                            if phv.pp.op_drop {
                                ctx.counters[C_EXPLICIT_DROPS] += 1;
                                phv.trace_flags |= decision::EXPLICIT_DROP;
                                phv.pp.valid = false;
                                phv.verdict.drop = true;
                            } else {
                                ctx.counters[C_MERGES] += 1;
                                phv.trace_flags |= decision::MERGE;
                                let xsum = restored_checksum(
                                    phv.udp.is_some(),
                                    stored_xsum,
                                    stored_tsum,
                                    tuple_sum(phv),
                                );
                                phv.set_transport_checksum(xsum);
                                phv.meta[META_XSUM] = u32::from(xsum);
                                apply_len_delta(phv, restore_primary - PP_LEN, ctx.counters);
                                phv.pp.valid = false;
                            }
                        }
                        MergeOutcome::Duplicate => {
                            ctx.counters[C_DUP_MERGE] += 1;
                            phv.trace_flags |= decision::DUP_MERGE;
                            phv.verdict.drop = true;
                        }
                        MergeOutcome::Premature => {
                            ctx.counters[C_PREMATURE_EVICTIONS] += 1;
                            phv.trace_flags |= decision::PREMATURE_EVICT;
                            phv.verdict.drop = true;
                        }
                    }
                })
                .summary(
                    MatSummary::on_port_set((*merge_ports).clone())
                        .require(Req::Valid(Slot::Pp))
                        .require(Req::PpEnb(true))
                        .reads(Slot::Pp)
                        .branch(BranchSummary::new("crc_fail").drops())
                        .branch(
                            BranchSummary::new("merge")
                                .sets_flag(META_MERGE_OK as u8)
                                .writes(m(META_TBL_IDX))
                                .writes(m(META_XSUM))
                                .reads(Slot::Ipv4)
                                .reads(Slot::Transport)
                                .writes(Slot::Ipv4)
                                .writes(Slot::Transport)
                                .sets_invalid(Slot::Pp)
                                .drops(),
                        )
                        .branch(
                            BranchSummary::new("explicit_drop")
                                .sets_flag(META_MERGE_OK as u8)
                                .writes(m(META_TBL_IDX))
                                .sets_invalid(Slot::Pp)
                                .drops(),
                        )
                        .branch(BranchSummary::new("dup").drops())
                        .branch(BranchSummary::new("premature").drops()),
                )
                .footprint(gateway_footprint(52, 6))
                .build(),
        );
    }

    // --- Stages 2..N: payload blocks against the store, same striping as
    // the register arrays (Fig. 4).
    for j in 0..cfg.primary_blocks {
        let stage = primary_block_stage(&chip, j);
        {
            let sp = split_ports.clone();
            let st = store.clone();
            b.place(
                stage,
                Mat::builder(format!("split_store_{j}"))
                    .gateway(move |p| p.meta[META_SPLIT_OK] == 1 && sp.contains(p.ingress_port.0))
                    .action(move |ctx| {
                        let slot = ctx.phv.meta[META_TBL_IDX] as usize;
                        lock(&st).store_block(slot, j, &ctx.phv.blocks[j].data);
                        ctx.phv.blocks[j].valid = false;
                    })
                    .summary(
                        MatSummary::on_port_set((*split_ports).clone())
                            .require(Req::MetaFlag(META_SPLIT_OK as u8))
                            .reads(m(META_TBL_IDX))
                            .reads(Slot::Blocks),
                    )
                    .footprint(gateway_footprint(44, 1))
                    .build(),
            );
        }
        {
            let mp = merge_ports.clone();
            let st = store.clone();
            b.place(
                stage,
                Mat::builder(format!("merge_load_{j}"))
                    .gateway(move |p| p.meta[META_MERGE_OK] == 1 && mp.contains(p.ingress_port.0))
                    .action(move |ctx| {
                        let slot = ctx.phv.meta[META_TBL_IDX] as usize;
                        lock(&st).load_block(slot, j, &mut ctx.phv.blocks[j].data);
                        ctx.phv.blocks[j].valid = true;
                    })
                    .summary(
                        MatSummary::on_port_set((*merge_ports).clone())
                            .require(Req::MetaFlag(META_MERGE_OK as u8))
                            .reads(m(META_TBL_IDX))
                            .writes(Slot::Blocks)
                            .sets_valid(Slot::Blocks),
                    )
                    .footprint(gateway_footprint(44, 1))
                    .build(),
            );
        }
    }

    let pipeline = b.build()?;
    let handles = StoreHandles {
        pipe: pipe_cfg.pipe,
        total_slots: store_slots,
        expiry,
        store,
        ti_reg,
        clk_reg,
        slices: pipe_cfg.slices.iter().map(|s| s.name.clone()).collect(),
    };
    Ok((pipeline, handles))
}

/// Assembles a store-backed switch for a single-pipe deployment, slices
/// laid out cumulatively (the register program's layout). The store's
/// slot space must cover `cfg`'s total slots.
pub fn build_store_switch(
    cfg: &ParkConfig,
    store: SharedStore,
) -> Result<(SwitchModel, StoreControl), BuildError> {
    let pipe_cfg = single_pipe(cfg)?;
    let mut bases = Vec::with_capacity(pipe_cfg.slices.len());
    let mut base = 0u32;
    for slice in &pipe_cfg.slices {
        bases.push(base);
        base += slice.slots as u32;
    }
    build_store_switch_with_bases(cfg, &bases, store)
}

/// Assembles a store-backed switch whose slices address the store at the
/// given global bases — the cluster form, where each switch's slices keep
/// their parent-deployment coordinates so wire tags survive migration.
pub fn build_store_switch_with_bases(
    cfg: &ParkConfig,
    bases: &[u32],
    store: SharedStore,
) -> Result<(SwitchModel, StoreControl), BuildError> {
    let pipe_cfg = single_pipe(cfg)?;
    cfg.validate().map_err(BuildError::Config)?;
    let chip = cfg.chip;
    let (pipeline, handles) = build_store_primary(cfg, pipe_cfg, bases, store)?;
    let mut primary = Some(pipeline);
    let mut pipes = Vec::with_capacity(chip.pipes);
    for idx in 0..chip.pipes {
        if idx == handles.pipe {
            pipes.push(primary.take().expect("one primary pipe"));
        } else {
            pipes.push(Pipeline::builder(chip).build()?);
        }
    }
    Ok((SwitchModel::new(chip, pipes), StoreControl { handles }))
}

fn single_pipe(cfg: &ParkConfig) -> Result<&PipePark, BuildError> {
    match cfg.pipes.as_slice() {
        [pipe_cfg] => Ok(pipe_cfg),
        other => Err(BuildError::Config(format!(
            "store-backed switches host exactly one parked pipe, config has {}",
            other.len()
        ))),
    }
}

/// Control-plane view of a store-backed switch: counters from the
/// pipeline, occupancy from the store, tagger state for migration.
#[derive(Clone)]
pub struct StoreControl {
    handles: StoreHandles,
}

impl StoreControl {
    /// The underlying handles.
    pub fn handles(&self) -> &StoreHandles {
        &self.handles
    }

    /// Reads the deployment's monitoring counters.
    pub fn counters(&self, switch: &SwitchModel) -> CounterSnapshot {
        CounterSnapshot::read(switch.pipe(self.handles.pipe))
    }

    /// Number of occupied slots (expiry > 0), straight from the store.
    pub fn occupancy(&self) -> usize {
        lock(&self.handles.store).occupancy()
    }

    /// Payloads currently demoted to the store's spill tier.
    pub fn spilled(&self) -> usize {
        lock(&self.handles.store).spilled()
    }

    /// A handle on the park table itself.
    pub fn store(&self) -> SharedStore {
        self.handles.store.clone()
    }

    /// Sets the live expiry threshold.
    pub fn set_expiry(&self, v: u16) {
        self.handles.expiry.store(v, Ordering::Relaxed);
    }

    /// Clears the park table and every register (taggers included).
    pub fn clear_tables(&self, switch: &mut SwitchModel) {
        lock(&self.handles.store).clear();
        switch.pipe_mut(self.handles.pipe).registers_mut().clear_all();
    }

    /// Reads the per-slice tagger state `(ti, clk)` in slice config order
    /// — the state that must travel with a slice on rebalance so the new
    /// owner continues the exact `ti`/`clk` sequences.
    pub fn tagger_state(&self, switch: &SwitchModel) -> Vec<(u32, u32)> {
        let regs = switch.pipe(self.handles.pipe).registers();
        (0..self.handles.slices.len())
            .map(|i| {
                (
                    cell::read_u32(regs.cell(self.handles.ti_reg, i)),
                    cell::read_u32(regs.cell(self.handles.clk_reg, i)),
                )
            })
            .collect()
    }

    /// Writes one slice's tagger state (by slice position in this
    /// switch's config order).
    pub fn set_tagger_state(&self, switch: &mut SwitchModel, slice: usize, ti: u32, clk: u32) {
        let regs = switch.pipe_mut(self.handles.pipe).registers_mut();
        cell::write_u32(regs.cell_mut(self.handles.ti_reg, slice), ti);
        cell::write_u32(regs.cell_mut(self.handles.clk_reg, slice), clk);
    }
}
