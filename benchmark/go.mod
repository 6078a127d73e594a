// The benchmark is a module of its own so that `go build ./...` and
// `go test ./...` at the repository root never compile or run it; the
// replace directive points it at the code under test, and the module path
// keeps it inside the skyscraper/ tree so it may import skyscraper/internal.
module skyscraper/benchmark

go 1.22

require skyscraper v0.0.0

replace skyscraper => ../
