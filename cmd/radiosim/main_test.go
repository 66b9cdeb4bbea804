package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adhocradio"
)

// The goldens under testdata/ are the stdout of the standalone binaries
// this command replaced (advbuild, seqdump) and of radiosim before the
// subcommands existed, captured with the same arguments. They are not
// regenerated from this code: a diff is a behaviour change.
func TestGoldenStdout(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"broadcast.golden", []string{"-n", "128", "-d", "8"}},
		{"broadcast_reports.golden", []string{"-n", "128", "-d", "8", "-proto", "ss", "-timeline", "-energy", "-heatmap"}},
		{"adversary.golden", []string{"adversary", "-proto", "ss", "-n", "256", "-d", "16", "-layers"}},
		{"seq.golden", []string{"seq", "-r", "4096", "-d", "512", "-relaxed", "-dump"}},
	}
	for _, tc := range cases {
		t.Run(strings.TrimSuffix(tc.golden, ".golden"), func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatalf("radiosim %s: %v", strings.Join(tc.args, " "), err)
			}
			assertGolden(t, filepath.Join("testdata", tc.golden), out.Bytes())
		})
	}
}

// TestAdversaryWritesGraph: -dot and -save stream the constructed network
// through writeGraph, byte-identical to the old advbuild's files.
func TestAdversaryWritesGraph(t *testing.T) {
	dir := t.TempDir()
	dot, edges := filepath.Join(dir, "g.dot"), filepath.Join(dir, "g.edges")
	var out bytes.Buffer
	if err := run([]string{"adversary", "-proto", "ss", "-n", "64", "-d", "4", "-dot", dot, "-save", edges}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote DOT to "+dot) || !strings.Contains(out.String(), "wrote edge list to "+edges) {
		t.Fatalf("stdout does not report the written files:\n%s", out.String())
	}
	for got, golden := range map[string]string{dot: "adversary_n64_d4.dot", edges: "adversary_n64_d4.edges"} {
		data, err := os.ReadFile(got)
		if err != nil {
			t.Fatal(err)
		}
		assertGolden(t, filepath.Join("testdata", golden), data)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		is   error  // errors.Is target, or nil
		msg  string // substring of the error text
		out  string // substring of stdout
	}{
		{"unknown-protocol", []string{"-proto", "zigzag"}, adhocradio.ErrUnknownProtocol, "known: kp, kp-paper", ""},
		{"bad-topology", []string{"-topo", "moebius"}, adhocradio.ErrInvalidTopologySpec, "bad -topo", ""},
		{"budget", []string{"-topo", "path", "-n", "300", "-maxsteps", "10"}, adhocradio.ErrBudgetExhausted, "step limit",
			"step budget exhausted: 3/300 nodes informed after 10 steps"},
		{"adversary-randomized-victim", []string{"adversary", "-proto", "kp"}, nil, `protocol "kp" is not deterministic`, ""},
		{"adversary-unknown-victim", []string{"adversary", "-proto", "zigzag"}, adhocradio.ErrUnknownProtocol, "zigzag", ""},
		{"seq-strict-outside-window", []string{"seq", "-r", "1024", "-d", "64"}, nil, "use BuildRelaxed", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err == nil {
				t.Fatalf("radiosim %s succeeded, want an error", strings.Join(tc.args, " "))
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Errorf("err = %v, want errors.Is %v", err, tc.is)
			}
			if !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("err = %q, want it to contain %q", err, tc.msg)
			}
			if !strings.Contains(out.String(), tc.out) {
				t.Errorf("stdout = %q, want it to contain %q", out.String(), tc.out)
			}
		})
	}
}

func assertGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Fatalf("%s: first difference at line %d:\n  golden:  %q\n  current: %q", path, i+1, w, g)
		}
	}
}
