// analyze-fixture-as: src/storage/budget_forwarded.cc
// The budget is charged on the local step and forwarded at the hop, and
// the retry loop consults it — the discipline the rule enforces. A
// RetryState drives the loop, as it must every retry loop in src/storage.
// The explicitly Unlimited background path is a deliberate, visible choice.

Status ReadLower(const std::string& name, DeadlineBudget& budget);

Status Serve(Device* device, const std::string& name,
             DeadlineBudget& budget) {
  RetryState state(RetryPolicy{});
  for (;;) {
    if (budget.expired()) return Status::DeadlineExceeded("budget");
    const Status s = device->Read(name);
    if (s.ok()) break;
    const Status verdict = state.BeforeRetry(s);
    if (!verdict.ok()) return verdict;
  }
  return ReadLower(name, budget);
}

Status BackgroundResync(const std::string& name) {
  DeadlineBudget budget = DeadlineBudget::Unlimited();
  return ReadLower(name, budget);
}
