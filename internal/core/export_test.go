package core

// BatchSummaryKinds gives the external tests (package core_test), which
// may import packages built on core such as the registry, the summary
// kinds the batch tests build.
var BatchSummaryKinds = batchSummaryKinds
