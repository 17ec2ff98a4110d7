// The benchmark is a module of its own so that the repository's build
// and tests (go build ./... && go test ./... at the root) never compile
// it. The module path keeps the repro/ prefix, which is what lets it
// import repro/internal/...; the replace points at the checkout the
// benchmark runs in.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
