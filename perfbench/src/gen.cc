// The seeded run generator shared by trace_roundtrip and serve_mixed.
#include <algorithm>

#include "trace/callstack.h"
#include "workloads.h"

namespace pb {

namespace ev = diog::evstore;
using diog::hooks::Fn;

// A run shaped like a traced application: sync sites, then ops (a seeded
// share of them blocking syncs), one classification per sync, first-use
// gaps for the problem syncs, page faults and internal-span padding.
// Problem instances are capped per site, as in real runs, so stage 5
// stays tractable at this size.
GeneratedRun generate_run(std::uint64_t seed, std::uint64_t events,
                          const std::string& workload) {
  SeedRng rng(seed);
  GeneratedRun in;
  auto& frames = diog::trace::FrameTable::instance();
  const diog::trace::Frame* root = frames.intern("bench_main", "bench.cu", 10);
  const int benign = static_cast<int>(rng.in(12, 20));
  const int problems = static_cast<int>(rng.in(3, 6));
  for (int s = 0; s < benign + problems; ++s) {
    const bool problem = s >= benign;
    const std::string fn =
        (problem ? "hot_sync_" : "compute_") + std::to_string(s);
    in.stacks.emplace_back(std::vector<const diog::trace::Frame*>{
        root, frames.intern(fn, "bench.cu", 100 + s)});
  }
  for (const char* n : {"pipeline.stage", "codec.encode", "io.flush",
                        "kernel.pad"}) {
    in.names.emplace_back(n);
  }
  const auto stack_id = [](int s) { return static_cast<ev::StackId>(s + 1); };

  const std::uint64_t sync_period = static_cast<std::uint64_t>(rng.in(48, 80));
  const std::int64_t spacing = rng.in(800, 1200);
  constexpr std::uint64_t kInstancesPerSite = 16;
  const std::uint64_t ops_n = events * 90 / 100;
  const std::uint64_t sync_n = ops_n / sync_period;
  const std::uint64_t problem_n =
      std::min<std::uint64_t>(sync_n, problems * kInstancesPerSite);

  in.meta.workload = workload;
  in.meta.wait_fn = Fn::kCudaDeviceSynchronize;
  for (int s = 0; s < benign + problems; ++s) {
    ev::Event e;
    e.kind = ev::EventKind::kSyncSite;
    e.set_fn(Fn::kCudaDeviceSynchronize);
    e.stack = stack_id(s);
    e.value = s >= benign ? kInstancesPerSite : sync_n / benign;
    in.rows.push_back(e);
  }
  std::vector<std::uint64_t> sync_ops;
  std::int64_t t = 0;
  for (std::uint64_t i = 0; i < ops_n; ++i) {
    ev::Event e;
    e.kind = ev::EventKind::kOp;
    e.op_index = i;
    e.t_start = t;
    if (i % sync_period == sync_period - 1) {
      const std::uint64_t k = sync_ops.size();
      e.set_fn(rng.in(0, 3) == 0 ? Fn::kCudaStreamSynchronize
                                 : Fn::kCudaDeviceSynchronize);
      e.set(ev::flag::kPerformedSync);
      e.aux_time = spacing * rng.in(4, 20);
      e.t_end = e.t_start + e.aux_time + 50;
      e.stack = k < problem_n ? stack_id(benign + static_cast<int>(k % problems))
                              : stack_id(static_cast<int>(k % benign));
      sync_ops.push_back(i);
    } else {
      e.set_fn(Fn::kCudaMemcpyAsync);
      e.set(ev::flag::kAsyncRequested);
      e.set(ev::flag::kPerformedTransfer);
      e.set_direction(rng.in(0, 4) == 0 ? diog::hooks::MemcpyKind::kDeviceToHost
                                        : diog::hooks::MemcpyKind::kHostToDevice);
      e.set_dst_mem(diog::hooks::MemKind::kDevice);
      e.set_src_mem(diog::hooks::MemKind::kPinned);
      e.bytes = std::uint64_t{4096} << rng.in(0, 6);
      e.gpu_time = spacing / 2;
      e.t_end = e.t_start + spacing / 4 + rng.in(0, spacing / 8);
      e.stack = stack_id(static_cast<int>(rng.in(0, benign - 1)));
    }
    in.rows.push_back(e);
    t = e.t_end + spacing * rng.in(75, 125) / 100;
  }
  for (std::uint64_t k = 0; k < sync_ops.size(); ++k) {
    ev::Event e;
    e.kind = ev::EventKind::kSyncClassification;
    e.op_index = sync_ops[k];
    e.set(ev::flag::kSyncRequired, k >= problem_n);
    e.aux_stack = in.rows[sync_ops[k] + benign + problems].stack;
    e.value = 0x4000 + k;
    in.rows.push_back(e);
  }
  for (std::uint64_t k = 0; k < problem_n; ++k) {
    ev::Event e;
    e.kind = ev::EventKind::kSyncUse;
    e.op_index = sync_ops[k];
    e.aux_time = spacing * rng.in(1, 8);
    in.rows.push_back(e);
  }
  // Page faults and internal spans fill the rest, spread over the run.
  while (in.rows.size() < events) {
    ev::Event e;
    const std::int64_t at = rng.in(0, t);
    if (rng.in(0, 4) == 0) {
      e.kind = ev::EventKind::kPageFault;
      e.t_start = e.t_end = at;
      e.value = 0x7f0000000000ull + (rng.next() & 0xffffff000ull);
      if (rng.in(0, 1) == 0) e.set(ev::flag::kWriteAccess);
    } else {
      e.kind = ev::EventKind::kInternalSpan;
      e.name = static_cast<ev::NameId>(rng.in(1, 4));
      e.t_start = at;
      e.t_end = at + rng.in(100, 20000);
      e.value = static_cast<std::uint64_t>(rng.in(0, 3));
    }
    in.rows.push_back(e);
  }
  return in;
}

// The program's append path: intern the dictionaries, then one append
// per row.
ev::TraceRun append_run(const GeneratedRun& in) {
  ev::TraceRun run;
  run.meta = in.meta;
  for (const auto& s : in.stacks) (void)run.store->intern_stack(s);
  for (const auto& n : in.names) (void)run.store->intern_name(n);
  for (const ev::Event& e : in.rows) run.store->append(e);
  return run;
}

}  // namespace pb
