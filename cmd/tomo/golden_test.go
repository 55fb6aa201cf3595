package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// goldenRuns are the subcommands whose output is pinned byte for byte in
// testdata/golden/<name>.txt. Each runs with its default flags, except
// that collect's breaker cooldown is an hour: with the default 100 ms, a
// slow run would let a half-open probe reach the dead monitor and change
// its attempt counts.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"infer", []string{"infer"}},
	{"infer-failures-2", []string{"infer", "-failures", "2"}},
	{"simulate", []string{"simulate"}},
	{"simulate-learning", []string{"simulate", "-mode", "learning"}},
	{"select", []string{"select"}},
	{"learn", []string{"learn"}},
	{"place", []string{"place"}},
	{"diagnose", []string{"diagnose"}},
	{"topo", []string{"topo"}},
	{"collect", []string{"collect", "-cooldown", "1h"}},
}

// maxAbsError matches the digits of simulate's "max abs error", which
// depend on floating-point summation order.
var maxAbsError = regexp.MustCompile(`max abs error (\S+)`)

// maskMaxAbsError checks every "max abs error" value against 1e-9 and
// replaces its digits with a fixed mask.
func maskMaxAbsError(t *testing.T, out string) string {
	t.Helper()
	return maxAbsError.ReplaceAllStringFunc(out, func(m string) string {
		v, err := strconv.ParseFloat(maxAbsError.FindStringSubmatch(m)[1], 64)
		if err != nil || math.Abs(v) > 1e-9 {
			t.Errorf("%q: want a number at most 1e-9", m)
		}
		return "max abs error [masked]"
	})
}

func TestCLIGolden(t *testing.T) {
	for _, tc := range goldenRuns {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			got := maskMaxAbsError(t, out.String())
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got == string(want) {
				return
			}
			gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := range max(len(gotLines), len(wantLines)) {
				var g, w string
				if i < len(gotLines) {
					g = gotLines[i]
				}
				if i < len(wantLines) {
					w = wantLines[i]
				}
				if g != w {
					t.Fatalf("tomo %s: line %d is\n\t%q\nwant\n\t%q", strings.Join(tc.args, " "), i+1, g, w)
				}
			}
		})
	}
}
