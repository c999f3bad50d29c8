// analyze-fixture-as: src/sched/engine_metric_ok.cc
// The session-scale engine instruments belong to the sched layer, so a
// sched-layer file registering them is clean; other layers' names in
// comments (avdb_db_streams_open) are prose, not definitions.
struct Registry;
void Register(Registry* registry) {
  registry->GetGauge("avdb_sched_engine_pending");
  registry->GetCounter("avdb_sched_engine_cancelled_total");
  registry->GetCounter("avdb_sched_engine_compactions_total");
  registry->GetCounter("avdb_sched_admission_over_releases_total");
}
