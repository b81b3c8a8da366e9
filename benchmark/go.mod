// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` neither builds nor runs it; the
// jinjing/ path prefix lets it import the engine's internal packages.
module jinjing/benchmark

go 1.22

require jinjing v0.0.0

replace jinjing => ../
