// Session scale — idle sessions must be truly free.
//
// ROADMAP item 1's target is hundreds of thousands of concurrent streams
// on one engine. That only works if the scheduler's cost is O(1) per
// *active* element, not per session: a torn-down session must remove its
// pending events (no `std::function` tombstones riding the heap until
// their deadlines), event dispatch must not malloc per closure, and
// admission must not walk a string map per demand.
//
// The sweep plays N identical tiny video sessions (one shared synthetic
// value, source -> window, 6 frames at 10 fps) in virtual time for
// N = 10^2 .. 10^5 and gates on:
//
//   events/frame flat    events-run-per-presented-frame at 10^5 within
//                        10% (+0.1 absolute) of the 10^2 ratio — per-frame
//                        dispatch work must not grow with session count
//   p99 miss rate == 0   jitterless local sessions must never miss
//   engine bytes/session engine-owned memory (heap + slot table + free
//                        list) <= 2 KiB per session at 10^5
//   teardown drains      after StartAll + half the stream + StopAll at
//                        10^5, PendingEvents() returns to 0 (cancellation
//                        actually removed the events; RunUntilIdle then
//                        executes nothing)
//   over_releases == 0   the interned-id admission churn phase (10^5
//                        admit/release pairs over 64 sharded pools) keeps
//                        perfectly balanced accounting
//
// Host time is reported for context, under the JSON's `host` member; the
// gates are structural, so everything above `host` is deterministic and
// the `bench_output_scale` ctest compares it with the committed file.
//
// Output: BENCH_scale.json. Exit code is non-zero when any gate fails.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "activity/graph.h"
#include "activity/sinks.h"
#include "activity/sources.h"
#include "harness.h"
#include "media/synthetic.h"
#include "sched/admission.h"
#include "sched/event_engine.h"

using namespace avdb;

namespace {

constexpr int kFrames = 6;
constexpr int kSweep[] = {100, 1000, 10000, 100000};
constexpr int kMaxSessions = 100000;
constexpr int kAdmissionPools = 64;
constexpr double kBytesPerSessionGate = 2048.0;
constexpr double kEventsPerFrameSlack = 0.10;  // relative, plus 0.1 absolute

MediaDataType TinyVideoType() {
  return MediaDataType::RawVideo(4, 4, 8, Rational(10));
}

struct Fleet {
  EventEngine engine;
  std::unique_ptr<ActivityGraph> graph;
  std::vector<std::shared_ptr<VideoWindow>> windows;
};

/// N identical sessions: one shared tiny value, source -> window, local
/// connection (no channel, no jitter) so presentation is deterministic.
std::unique_ptr<Fleet> BuildFleet(int sessions,
                                  const std::shared_ptr<RawVideoValue>& value,
                                  double* build_seconds) {
  const bench::Stopwatch watch;
  auto fleet = std::make_unique<Fleet>();
  fleet->graph = std::make_unique<ActivityGraph>(
      ActivityEnv{&fleet->engine, nullptr});
  fleet->windows.reserve(sessions);
  const MediaDataType type = value->type();
  const VideoQuality quality(type.width(), type.height(), type.depth_bits(),
                             type.element_rate());
  for (int i = 0; i < sessions; ++i) {
    const std::string id = std::to_string(i);
    auto source = VideoSource::Create("src" + id, ActivityLocation::kDatabase,
                                      fleet->graph->env());
    if (!source->Bind(value, VideoSource::kPortOut).ok()) return nullptr;
    auto window = VideoWindow::Create("win" + id, ActivityLocation::kClient,
                                      fleet->graph->env(), quality);
    if (!fleet->graph->Add(source).ok()) return nullptr;
    if (!fleet->graph->Add(window).ok()) return nullptr;
    if (!fleet->graph
             ->Connect(source.get(), VideoSource::kPortOut, window.get(),
                       VideoWindow::kPortIn)
             .ok()) {
      return nullptr;
    }
    fleet->windows.push_back(std::move(window));
  }
  *build_seconds = watch.ElapsedSeconds();
  return fleet;
}

struct SweepRow {
  int sessions = 0;
  int64_t events_run = 0;
  int64_t frames_presented = 0;
  double events_per_frame = 0;
  double p99_miss_rate = 0;
  double bytes_per_session = 0;
  double build_seconds = 0;
  double run_seconds = 0;
};

bool RunSweepPoint(int sessions, const std::shared_ptr<RawVideoValue>& value,
                   SweepRow* row) {
  double build_seconds = 0;
  auto fleet = BuildFleet(sessions, value, &build_seconds);
  if (fleet == nullptr || !fleet->graph->StartAll().ok()) return false;
  const bench::Stopwatch watch;
  fleet->graph->RunUntilIdle();
  row->run_seconds = watch.ElapsedSeconds();
  row->build_seconds = build_seconds;
  row->sessions = sessions;
  row->events_run = fleet->engine.EventsRun();
  std::vector<double> miss_rates;
  miss_rates.reserve(fleet->windows.size());
  for (const auto& w : fleet->windows) {
    row->frames_presented += w->stats().elements_presented;
    miss_rates.push_back(w->stats().MissRate());
  }
  if (row->frames_presented == 0) return false;
  row->events_per_frame = static_cast<double>(row->events_run) /
                          static_cast<double>(row->frames_presented);
  std::sort(miss_rates.begin(), miss_rates.end());
  row->p99_miss_rate =
      miss_rates[static_cast<size_t>(0.99 * (miss_rates.size() - 1))];
  row->bytes_per_session =
      static_cast<double>(fleet->engine.MemoryFootprintBytes()) /
      static_cast<double>(sessions);
  return true;
}

struct TeardownResult {
  size_t pending_before = 0;
  size_t pending_after = 0;
  size_t heap_entries_after = 0;
  int64_t cancelled = 0;
  int64_t compactions = 0;
  int64_t events_after_stop = 0;
  double stop_seconds = 0;
};

bool RunTeardown(int sessions, const std::shared_ptr<RawVideoValue>& value,
                 TeardownResult* out) {
  double build_seconds = 0;
  auto fleet = BuildFleet(sessions, value, &build_seconds);
  if (fleet == nullptr || !fleet->graph->StartAll().ok()) return false;
  // Half the 0.6 s stream, then the whole fleet aborts at once.
  fleet->graph->RunUntil(WorldTime::FromMillis(300));
  out->pending_before = fleet->engine.PendingEvents();
  const bench::Stopwatch watch;
  if (!fleet->graph->StopAll().ok()) return false;
  out->stop_seconds = watch.ElapsedSeconds();
  out->pending_after = fleet->engine.PendingEvents();
  out->heap_entries_after = fleet->engine.HeapEntries();
  out->cancelled = fleet->engine.EventsCancelled();
  out->compactions = fleet->engine.Compactions();
  out->events_after_stop = fleet->engine.RunUntilIdle();
  return true;
}

struct AdmissionResult {
  double id_admits_per_sec = 0;
  double string_admits_per_sec = 0;
  int64_t over_releases = -1;
  bool all_admitted = false;
};

bool RunAdmissionChurn(int sessions, AdmissionResult* out) {
  AdmissionController ac;
  std::vector<PoolId> ids;
  std::vector<std::string> names;
  for (int i = 0; i < kAdmissionPools; ++i) {
    names.push_back("pool" + std::to_string(i));
    if (!ac.RegisterPool(names.back(), 1e12).ok()) return false;
    ids.push_back(ac.FindPool(names.back()));
  }
  // Interned-id path: the per-session demands carry dense ids, so each
  // admit touches its pools by index.
  std::vector<AdmissionTicket> tickets;
  tickets.reserve(sessions);
  bool ok = true;
  const bench::Stopwatch id_watch;
  for (int s = 0; s < sessions; ++s) {
    auto t = ac.Admit(std::vector<PooledDemand>{
        {ids[s % kAdmissionPools], 1.0},
        {ids[(s * 7 + 3) % kAdmissionPools], 2.0}});
    if (!t.ok()) ok = false;
    tickets.push_back(std::move(t).value());
  }
  for (auto& t : tickets) ac.Release(&t);
  out->id_admits_per_sec =
      static_cast<double>(sessions) / id_watch.ElapsedSeconds();
  // String path for comparison: same demands, name-keyed.
  tickets.clear();
  const bench::Stopwatch string_watch;
  for (int s = 0; s < sessions; ++s) {
    auto t = ac.Admit(std::vector<ResourceDemand>{
        {names[s % kAdmissionPools], 1.0},
        {names[(s * 7 + 3) % kAdmissionPools], 2.0}});
    if (!t.ok()) ok = false;
    tickets.push_back(std::move(t).value());
  }
  for (auto& t : tickets) ac.Release(&t);
  out->string_admits_per_sec =
      static_cast<double>(sessions) / string_watch.ElapsedSeconds();
  out->over_releases = ac.stats().over_releases;
  out->all_admitted = ok;
  return true;
}

}  // namespace

int main() {
  auto value =
      synthetic::GenerateVideo(TinyVideoType(), kFrames,
                               synthetic::VideoPattern::kMovingBox)
          .value();

  std::vector<SweepRow> rows;
  printf("session sweep: %d frames @ 10 fps per session, shared value\n",
         kFrames);
  for (int sessions : kSweep) {
    SweepRow row;
    if (!RunSweepPoint(sessions, value, &row)) {
      fprintf(stderr, "sweep point %d failed to run\n", sessions);
      return 1;
    }
    rows.push_back(row);
  }

  TeardownResult teardown;
  if (!RunTeardown(kMaxSessions, value, &teardown)) {
    fprintf(stderr, "teardown phase failed to run\n");
    return 1;
  }

  AdmissionResult admission;
  if (!RunAdmissionChurn(kMaxSessions, &admission)) {
    fprintf(stderr, "admission phase failed to run\n");
    return 1;
  }

  // ---------------------------------------------------------------- JSON --
  const SweepRow& small = rows.front();
  const SweepRow& large = rows.back();
  const bool gate_events_flat =
      large.events_per_frame <=
      small.events_per_frame * (1 + kEventsPerFrameSlack) + 0.1;
  const bool gate_p99 = large.p99_miss_rate == 0.0;
  const bool gate_bytes = large.bytes_per_session <= kBytesPerSessionGate;
  const bool gate_teardown = teardown.pending_after == 0 &&
                             teardown.cancelled > 0 &&
                             teardown.events_after_stop == 0;
  const bool gate_admission =
      admission.all_admitted && admission.over_releases == 0;

  std::vector<bench::Object> sweep, sweep_host;
  for (const SweepRow& r : rows) {
    sweep.push_back(
        {{"sessions", r.sessions}, {"events_run", r.events_run},
         {"frames_presented", r.frames_presented},
         {"events_per_frame", bench::Fixed(r.events_per_frame, 4)},
         {"p99_miss_rate", bench::Fixed(r.p99_miss_rate, 6)},
         {"engine_bytes_per_session", bench::Fixed(r.bytes_per_session, 1)}});
    sweep_host.push_back(
        {{"sessions", r.sessions},
         {"build_seconds", bench::Fixed(r.build_seconds, 4)},
         {"run_seconds", bench::Fixed(r.run_seconds, 4)}});
  }
  const bench::Object doc = {
      {"sweep", sweep},
      {"teardown",
       bench::Object{{"sessions", kMaxSessions},
                     {"pending_before", teardown.pending_before},
                     {"pending_after", teardown.pending_after},
                     {"heap_entries_after", teardown.heap_entries_after},
                     {"cancelled", teardown.cancelled},
                     {"compactions", teardown.compactions},
                     {"events_after_stop", teardown.events_after_stop}}},
      {"admission", bench::Object{{"sessions", kMaxSessions},
                                  {"pools", kAdmissionPools},
                                  {"over_releases", admission.over_releases}}},
      {"gates", bench::Object{{"events_per_frame_flat", gate_events_flat},
                              {"p99_miss_rate_zero", gate_p99},
                              {"bytes_per_session", gate_bytes},
                              {"teardown_drains", gate_teardown},
                              {"admission_balanced", gate_admission}}}};
  const bench::Object host = {
      {"sweep", sweep_host},
      {"teardown", bench::Object{{"stop_seconds",
                                  bench::Fixed(teardown.stop_seconds, 4)}}},
      {"admission",
       bench::Object{{"id_admits_per_sec",
                      bench::Fixed(admission.id_admits_per_sec, 0)},
                     {"string_admits_per_sec",
                      bench::Fixed(admission.string_admits_per_sec, 0)}}}};

  // ------------------------------------------------------------- gates ----
  bench::Gates gates;
  gates.Check(bench::WriteReport("BENCH_scale.json", doc, host),
              "BENCH_scale.json written");
  gates.Check(gate_events_flat, "events/frame flat from 10^2 to 10^5");
  gates.Check(gate_p99, "p99 deadline-miss rate at 10^5 == 0");
  gates.Check(gate_bytes, "engine bytes/session at 10^5 <= 2048");
  gates.Check(gate_teardown, "teardown drains pending events to 0");
  gates.Check(gate_admission, "admission churn balanced");
  return gates.ExitCode();
}
