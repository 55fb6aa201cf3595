package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDispatch(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing subcommand accepted")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

func TestRunTopoPresetAndWrite(t *testing.T) {
	out := filepath.Join(t.TempDir(), "as1755.edges")
	if err := run([]string{"topo", "-preset", "AS1755", "-write", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("edge list empty")
	}
}

func TestRunTopoLoad(t *testing.T) {
	in := filepath.Join(t.TempDir(), "weights.intra")
	if err := os.WriteFile(in, []byte("a b 1\nb c 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"topo", "-load", in}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"topo", "-load", in + ".missing"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunTopoUnknownPreset(t *testing.T) {
	if err := run([]string{"topo", "-preset", "AS0"}); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestRunInfer(t *testing.T) {
	if err := run([]string{"infer", "-failures", "1", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"infer", "-failures", "-2"}); err == nil {
		t.Fatal("negative failure count accepted")
	}
}

func TestRunSelectSmall(t *testing.T) {
	for _, alg := range []string{"probrome", "selectpath", "matrome"} {
		if err := run([]string{"select", "-preset", "AS1755", "-paths", "49", "-alg", alg, "-budget-mult", "0.5"}); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
	if err := run([]string{"select", "-alg", "quantum"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRunSelectLoadedTopology(t *testing.T) {
	in := filepath.Join(t.TempDir(), "weights.intra")
	data := "a b 1\nb c 1\nc d 1\nd a 1\na c 2\nb d 2\nc e 1\ne f 1\nf d 1\n"
	if err := os.WriteFile(in, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"select", "-load", in, "-paths", "4", "-budget-mult", "1.0"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPlace(t *testing.T) {
	if err := run([]string{"place", "-monitors", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"place", "-monitors", "4", "-failures", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"place", "-monitors", "1"}); err == nil {
		t.Fatal("budget 1 accepted")
	}
}

func TestRunSimulate(t *testing.T) {
	if err := run([]string{"simulate", "-paths", "36", "-epochs", "20"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"simulate", "-paths", "36", "-epochs", "20", "-mode", "learning"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"simulate", "-mode", "quantum"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestRunLearnSmall(t *testing.T) {
	if err := run([]string{"learn", "-paths", "36", "-epochs", "40", "-budget-mult", "0.5"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCollect(t *testing.T) {
	// Full arc: healthy epochs, monitor killed mid-run, degraded epochs,
	// breaker opening — and the loop still completes.
	if err := run([]string{"collect", "-epochs", "6", "-kill-epoch", "2",
		"-cooldown", "50ms"}); err != nil {
		t.Fatal(err)
	}
	// No kill: every epoch healthy.
	if err := run([]string{"collect", "-epochs", "3", "-kill-epoch", "-1"}); err != nil {
		t.Fatal(err)
	}
	// FailFast mode reports degraded epochs but the command still succeeds.
	if err := run([]string{"collect", "-epochs", "4", "-kill-epoch", "1",
		"-fail-fast"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"collect", "-epochs", "0"}); err == nil {
		t.Fatal("zero epochs accepted")
	}
	if err := run([]string{"collect", "-stream"}); err == nil {
		t.Fatal("removed -stream flag accepted")
	}
}

func TestRunCollectStrict(t *testing.T) {
	// A monitor killed with a long breaker cooldown leaves the final epoch
	// degraded: -strict turns that into a non-zero exit.
	err := run([]string{"collect", "-epochs", "5", "-kill-epoch", "1",
		"-cooldown", "1h", "-strict"})
	if err == nil {
		t.Fatal("strict mode accepted a degraded final epoch")
	}
	if !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("strict error %q does not mention degradation", err)
	}
	// All monitors healthy: strict mode passes.
	if err := run([]string{"collect", "-epochs", "3", "-kill-epoch", "-1", "-strict"}); err != nil {
		t.Fatalf("strict mode rejected a healthy run: %v", err)
	}
	// In fail-fast mode the degraded final epoch surfaces as a step error;
	// strict treats that as a failure too.
	if err := run([]string{"collect", "-epochs", "4", "-kill-epoch", "2",
		"-cooldown", "1h", "-fail-fast", "-strict"}); err == nil {
		t.Fatal("strict + fail-fast accepted a failing final epoch")
	}
}
