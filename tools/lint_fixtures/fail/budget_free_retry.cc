// analyze-fixture-as: src/storage/budget_free_retry.cc
// analyze-expect: budget-propagation,naked-retry
// The retry loop never consults the budget it was handed: it charges
// nothing per attempt and retries past the caller's deadline. (The
// budget-unused arm also fires, and so does naked-retry: no RetryState.)

Status ReadWithRetry(Device* device, Extent e, DeadlineBudget* budget) {
  Status s = Status::OK();
  for (int attempt = 0; attempt < 5; ++attempt) {
    s = device->Read(e);
    if (s.ok()) return s;
  }
  return s;
}
