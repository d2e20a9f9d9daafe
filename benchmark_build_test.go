package qirana

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleBuilds compiles and vets the nested benchmark/
// module (its own go.mod, `replace qirana => ../`), which `go test ./...`
// does not otherwise reach: a refactor that moves or renames one of the
// program symbols listed in the header of benchmark/probes.go fails here
// instead of at the benchmark gate. `make bench-build` runs the same two
// commands.
func TestBenchmarkModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second module; skipped under -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	for _, args := range [][]string{
		{"build", "-o", os.DevNull, "./..."},
		{"vet", "./..."},
	} {
		cmd := exec.Command(goBin, args...)
		cmd.Dir = "benchmark"
		// Never consult a workspace, the network or a newer toolchain.
		cmd.Env = append(os.Environ(), "GOWORK=off", "GOTOOLCHAIN=local", "GOFLAGS=")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("cd benchmark && go %v: %v\n%s", args, err, out)
		}
	}
}
