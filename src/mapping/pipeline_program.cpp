#include "mapping/pipeline_program.h"

#include <cstring>

#include "common/error.h"

namespace ceresz::mapping {

namespace {

using wse::Color;
using wse::Direction;
using wse::Message;

/// Mutable per-head relay state, captured by the head's task closures.
struct HeadState {
  u64 relays_needed_per_round = 0;  ///< blocks forwarded before keeping one
  u64 relayed_in_round = 0;
  u64 blocks_remaining = 0;  ///< blocks this head will still see
};

/// Reserve the local SRAM a stage group needs. A configuration whose
/// working set cannot fit in 48 KB must fail here, exactly as it would on
/// hardware (Section 4.4, assumption 2).
void reserve_group_memory(wse::PeMemory& memory, const StageGroup& group,
                          u32 block_size, PipeDirection direction) {
  memory.allocate("ceresz_stage_buffers",
                  estimate_group_memory(group, block_size, direction));
}

/// Run one stage group on a block and charge the cycles to the context.
void run_group(wse::PeContext& ctx, const SubStageExecutor& exec,
               const StageGroup& group, BlockWork& work) {
  for (const auto& stage : group.stages) {
    ctx.consume(exec.apply(work, stage));
  }
}

/// Emit the finished unit for `work` (compressed record or reconstructed
/// floats) as a host-visible result.
void emit_final(wse::PeContext& ctx, PipeDirection direction, u64 tag,
                BlockWork& work) {
  if (direction == PipeDirection::kCompress) {
    ctx.emit_result(tag, std::move(work.record));
    return;
  }
  std::vector<u8> bytes(work.output.size() * sizeof(f32));
  std::memcpy(bytes.data(), work.output.data(), bytes.size());
  ctx.emit_result(tag, std::move(bytes));
}

}  // namespace

void build_row_program(wse::Fabric& fabric, u32 row, const PipelinePlan& plan,
                       PipeDirection direction,
                       std::shared_ptr<const SubStageExecutor> executor,
                       std::vector<RowBlock> row_blocks,
                       f64 ingress_cycles_per_wavelet, u32 usable_cols) {
  CERESZ_CHECK(ingress_cycles_per_wavelet >= 1.0,
               "build_row_program: ingress rate cannot beat the fabric "
               "(one wavelet per cycle)");
  CERESZ_CHECK(usable_cols <= fabric.config().cols,
               "build_row_program: usable columns exceed the mesh");
  const u32 cols = usable_cols == 0 ? fabric.config().cols : usable_cols;
  const u32 pl = plan.length();
  CERESZ_CHECK(pl >= 1 && pl <= cols,
               "build_row_program: pipeline longer than the row");
  const u32 n_pipes = cols / pl;
  CERESZ_CHECK(row_blocks.size() % n_pipes == 0,
               "build_row_program: block count must be a multiple of the "
               "pipeline count (the mapper pads)");
  const u64 rounds = row_blocks.size() / n_pipes;
  const u32 block_size = executor->codec().block_size;

  // ---- Per-pipeline programs ----
  for (u32 h = 0; h < n_pipes; ++h) {
    const u32 head_col = h * pl;
    const Color raw_in = colors::kRaw[h % 2];
    const Color raw_out = colors::kRaw[(h + 1) % 2];

    // Raw-stream routes. The head receives raw blocks up its RAMP and — if
    // it must feed pipelines to the east — re-injects them on the opposite
    // raw color, which pass-through PEs (the pipeline's stage PEs) route
    // W->E in the fabric without software involvement.
    if (h > 0) {
      fabric.router(row, head_col).set_route(raw_in, {Direction::kWest},
                                             {Direction::kRamp});
    }
    const bool feeds_east = h + 1 < n_pipes;
    if (feeds_east) {
      fabric.router(row, head_col).set_route(raw_out, {Direction::kRamp},
                                             {Direction::kEast});
      for (u32 p = 1; p < pl; ++p) {
        fabric.router(row, head_col + p)
            .set_route(raw_out, {Direction::kWest}, {Direction::kEast});
      }
    }

    // Intra-pipeline stage routes: stage p sends east on kInter[p % 2].
    for (u32 p = 0; p + 1 < pl; ++p) {
      const Color inter = colors::kInter[p % 2];
      fabric.router(row, head_col + p)
          .set_route(inter, {Direction::kRamp}, {Direction::kEast});
      fabric.router(row, head_col + p + 1)
          .set_route(inter, {Direction::kWest}, {Direction::kRamp});
    }

    // Memory accounting for every PE of the pipeline.
    for (u32 p = 0; p < pl; ++p) {
      reserve_group_memory(fabric.memory(row, head_col + p), plan.groups[p],
                           block_size, direction);
    }

    // ---- Head relay + first stage group (Figure 9(b)) ----
    auto state = std::make_shared<HeadState>();
    state->relays_needed_per_round = n_pipes - 1 - h;
    state->blocks_remaining = rounds * (n_pipes - h);

    fabric.bind_task(
        row, head_col, colors::kRelayTask,
        [state, raw_in, raw_out](wse::PeContext& ctx) {
          if (state->blocks_remaining == 0) return;  // stream exhausted
          --state->blocks_remaining;
          ctx.consume(kRelayTaskConsume);
          if (state->relayed_in_round < state->relays_needed_per_round) {
            ++state->relayed_in_round;
            ctx.forward_async(raw_in, raw_out, colors::kRelayTask);
          } else {
            state->relayed_in_round = 0;
            ctx.recv_async(raw_in, colors::kComputeTask);
          }
        });

    const bool head_is_last = pl == 1;
    const Color head_inter_out = colors::kInter[0];
    // Stage groups are copied into the closures: tasks run during
    // Fabric::run(), which may outlive the caller's plan object.
    StageGroup head_group = plan.groups[0];
    fabric.bind_task(
        row, head_col, colors::kComputeTask,
        [executor, head_group = std::move(head_group), direction, raw_in,
         head_is_last, head_inter_out](wse::PeContext& ctx) {
          Message msg = ctx.take_delivered(raw_in);
          auto work = std::static_pointer_cast<BlockWork>(msg.user);
          CERESZ_CHECK(work != nullptr, "compute: message lost its block");
          run_group(ctx, *executor, head_group, *work);
          if (head_is_last) {
            emit_final(ctx, direction, msg.tag, *work);
          } else {
            Message out;
            out.extent = msg.extent;
            out.tag = msg.tag;
            out.user = work;
            ctx.send_async(head_inter_out, std::move(out));
          }
          // Resume relaying before (in program order) the next block's
          // computation, as in Figure 9(b).
          ctx.activate(colors::kRelayTask);
        });

    fabric.activate_at(row, head_col, colors::kRelayTask, 0);

    // ---- Stage PEs (positions 1..pl-1): data-triggered on their inter
    // color ----
    for (u32 p = 1; p < pl; ++p) {
      const Color inter_in = colors::kInter[(p - 1) % 2];
      const Color inter_out = colors::kInter[p % 2];
      const bool is_last = p + 1 == pl;
      StageGroup group = plan.groups[p];
      fabric.bind_task(
          row, head_col + p, inter_in,
          [executor, group = std::move(group), direction, inter_in, inter_out,
           is_last](wse::PeContext& ctx) {
            Message msg = ctx.take_delivered(inter_in);
            auto work = std::static_pointer_cast<BlockWork>(msg.user);
            CERESZ_CHECK(work != nullptr, "stage: message lost its block");
            run_group(ctx, *executor, group, *work);
            if (is_last) {
              emit_final(ctx, direction, msg.tag, *work);
            } else {
              Message out;
              out.extent = msg.extent;
              out.tag = msg.tag;
              out.user = work;
              ctx.send_async(inter_out, std::move(out));
            }
          },
          wse::TaskTrigger::kDataTriggered);
    }
  }

  // ---- Inject the row's block stream into the first head ----
  // Blocks arrive spaced by their wavelet count times the ingress rate;
  // rate 1.0 is the saturated stream of Section 4.4's assumption 1.
  f64 arrival = 0.0;
  for (auto& rb : row_blocks) {
    Message msg;
    msg.color = colors::kRaw[0];
    msg.extent = rb.extent;
    msg.tag = rb.tag;
    msg.user = std::move(rb.work);
    arrival += static_cast<f64>(rb.extent) * ingress_cycles_per_wavelet;
    fabric.inject(row, 0, std::move(msg), static_cast<Cycles>(arrival));
  }
}

std::size_t estimate_group_memory(const StageGroup& group, u32 block_size,
                                  PipeDirection direction) {
  using core::SubStageKind;
  std::size_t bytes = 0;
  // One block of message staging: fabin/fabout DSDs stream directly
  // into/out of a PE-resident buffer.
  bytes += static_cast<std::size_t>(block_size) * 4;
  u32 shuffle_planes = 0;
  for (const auto& s : group.stages) {
    switch (s.kind) {
      case SubStageKind::kPrequantMul:
        bytes += block_size * 4;  // f32 scratch on the PE
        break;
      case SubStageKind::kPrequantAdd:
      case SubStageKind::kLorenzo:
      case SubStageKind::kPrefixSum:
      case SubStageKind::kDequantMul:
        bytes += block_size * 4;
        break;
      case SubStageKind::kSign:
        bytes += block_size * 4 + block_size / 8;
        break;
      case SubStageKind::kMax:
      case SubStageKind::kGetLength:
        bytes += 8;
        break;
      case SubStageKind::kShuffleBit:
      case SubStageKind::kUnshuffleBit:
        ++shuffle_planes;
        break;
    }
  }
  bytes += static_cast<std::size_t>(shuffle_planes) * (block_size / 8);
  if (direction == PipeDirection::kDecompress) {
    bytes += static_cast<std::size_t>(block_size) * 4 +  // record staging
             block_size / 8;
  }
  return bytes;
}

PipelinePlan plan_with_sram(const GreedyScheduler& scheduler,
                            const std::vector<core::SubStage>& stages,
                            u32 block_size, PipeDirection direction,
                            std::size_t sram_bytes) {
  auto fits = [&](const PipelinePlan& plan) {
    for (const auto& group : plan.groups) {
      if (estimate_group_memory(group, block_size, direction) > sram_bytes) {
        return false;
      }
    }
    return true;
  };

  // Preferred: the shortest cycle-balanced split that fits.
  const u32 max_pl = std::max(1u, scheduler.max_feasible_length(stages));
  for (u32 pl = 1; pl <= max_pl; ++pl) {
    PipelinePlan plan = scheduler.distribute(stages, pl);
    if (fits(plan)) return plan;
  }

  // Fallback: memory-greedy partition — fill each PE to its SRAM budget.
  PipelinePlan plan;
  plan.groups.emplace_back();
  core::PeCostModel cost;  // group cycle annotation only
  for (const auto& stage : stages) {
    StageGroup candidate = plan.groups.back();
    candidate.stages.push_back(stage);
    if (!plan.groups.back().stages.empty() &&
        estimate_group_memory(candidate, block_size, direction) >
            sram_bytes) {
      plan.groups.emplace_back();
    }
    auto& group = plan.groups.back();
    group.stages.push_back(stage);
    group.cycles += cost.substage_cycles(stage, block_size);
    CERESZ_CHECK(
        estimate_group_memory(group, block_size, direction) <= sram_bytes,
        "plan_with_sram: a single sub-stage's working set exceeds the PE's "
        "SRAM — reduce the block size");
  }
  return plan;
}

u32 choose_pipeline_length(const GreedyScheduler& scheduler,
                           const std::vector<core::SubStage>& stages,
                           u32 block_size, PipeDirection direction,
                           std::size_t sram_bytes) {
  return plan_with_sram(scheduler, stages, block_size, direction, sram_bytes)
      .length();
}

}  // namespace ceresz::mapping
