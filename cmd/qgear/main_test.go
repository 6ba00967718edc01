package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/randcirc"
	"qgear/internal/service"
)

// qgear runs one command line through the dispatcher and returns what
// it printed.
func qgear(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("qgear %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// durations matches the wall-clock token of a result line — the one
// part of the output two fresh runs of the same work do not share.
var durations = regexp.MustCompile(`[0-9.]+(ns|µs|ms|s)\b`)

const ansatz = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
ry(0.3) q[0];
cx q[0],q[1];
ry(1.1) q[2];
cx q[1],q[2];
cx q[2],q[3];
`

// TestCommandsAreServiceClients drives run, expect and sweep the way
// `make ci-warmstart` does: twice on one store directory — the second
// pass must answer every job from disk with the first pass's output to
// the byte — and once without a store, which must print the same values.
func TestCommandsAreServiceClients(t *testing.T) {
	dir := t.TempDir()
	qpy := filepath.Join(dir, "c.qpy")
	qasm := filepath.Join(dir, "ansatz.qasm")
	points := filepath.Join(dir, "points.json")
	qgear(t, "generate", "-kind", "random", "-qubits", "6", "-blocks", "12", "-count", "3", "-out", qpy)
	for path, text := range map[string]string{qasm: ansatz, points: `[[0.1,0.2],[0.3,0.4],[1.5,-0.5]]`} {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	storeDir := filepath.Join(dir, "store")

	for _, tc := range []struct {
		name string
		args []string
		jobs int
	}{
		{"run probabilities", []string{"run", "-in", qpy}, 3},
		{"run shots", []string{"run", "-in", qpy, "-shots", "200", "-seed", "5"}, 3},
		{"run mqpu", []string{"run", "-in", qpy, "-shots", "200", "-devices", "2"}, 3},
		{"run mgpu", []string{"run", "-in", qpy, "-target", "nvidia-mgpu", "-devices", "2", "-tile", "3"}, 3},
		{"expect", []string{"expect", "-in", qpy, "-zz", "0.5"}, 3},
		{"sweep", []string{"sweep", "-in", qasm, "-points", points}, 1},
		{"sweep counts", []string{"sweep", "-in", qasm, "-points", points, "-counts", "-shots", "64"}, 1},
		{"gradient", []string{"sweep", "-in", qasm, "-gradient"}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stored := append(tc.args[:len(tc.args):len(tc.args)], "-store-dir", storeDir)
			first := qgear(t, stored...)
			if strings.Contains(first, storeHit) {
				t.Fatalf("first pass on an empty store reports a hit:\n%s", first)
			}
			second := qgear(t, stored...)
			if got := strings.Count(second, storeHit); got != tc.jobs {
				t.Fatalf("second pass: %d of %d jobs were store hits:\n%s", got, tc.jobs, second)
			}
			if stripped := strings.ReplaceAll(second, storeHit, ""); stripped != first {
				t.Fatalf("second pass differs from the first beyond the marker:\n--- first\n%s--- second\n%s", first, second)
			}
			storeless := qgear(t, tc.args...)
			if a, b := durations.ReplaceAllString(storeless, "T"), durations.ReplaceAllString(first, "T"); a != b {
				t.Fatalf("storeless run prints different values:\n--- with store\n%s--- without\n%s", first, storeless)
			}
		})
	}
}

// TestRunWindowsByQueueBound: a file holding more circuits than the
// server's queue is submitted in windows, never overflowing it — through
// the CLI at the default bound, and with the one worker held so that any
// submission beyond the bound would have been refused.
func TestRunWindowsByQueueBound(t *testing.T) {
	cs, err := randcirc.GenerateList(3, 2, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	qpy := filepath.Join(t.TempDir(), "many.qpy")
	if err := saveAny(qpy, cs); err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if n := srv.Config().QueueSize; n >= len(cs) {
		t.Fatalf("default queue bound %d holds all %d circuits; the test checks nothing", n, len(cs))
	}
	if got := strings.Count(qgear(t, "run", "-in", qpy), "target="); got != len(cs) {
		t.Fatalf("%d result lines for %d circuits", got, len(cs))
	}

	cfg := &service.Config{QueueSize: 2, WorkerPool: 1, MaxBatch: 1, ExecHook: func() { time.Sleep(time.Millisecond) }}
	seen := 0
	err = serve(cfg, cs[:12], service.SubmitOptions{}, func(c *circuit.Circuit, res *backend.Result, _ string) {
		if c != cs[seen] || len(res.Probabilities) != 8 {
			t.Fatalf("result %d out of order or empty", seen)
		}
		seen++
	})
	if err != nil || seen != 12 {
		t.Fatalf("served %d of 12 circuits behind a queue of 2: %v", seen, err)
	}
}

// TestRunSharesStoreWithService is the regression for the hand-matched
// store protocol this CLI once carried: on nvidia-mqpu with two devices
// it sampled the second fresh circuit of a batch on a single-device
// stream seeded Seed+1 and saved those counts under the content address
// the service gives the per-device split at Seed. A store the CLI
// filled must answer a server's identical submission with exactly what
// that server would have computed.
func TestRunSharesStoreWithService(t *testing.T) {
	const shots, seed = 500, 7
	dir := t.TempDir()
	cs, err := randcirc.GenerateList(5, 8, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	qpy := filepath.Join(dir, "two.qpy")
	if err := saveAny(qpy, cs); err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(dir, "store")
	qgear(t, "run", "-in", qpy, "-target", "nvidia-mqpu", "-devices", "2", "-shots", "500", "-seed", "7", "-store-dir", storeDir)

	cfg := service.Config{Target: backend.TargetNvidiaMQPU, Devices: 2}
	submit := func(cfg service.Config) (*backend.Result, service.JobInfo, service.Stats) {
		t.Helper()
		srv, err := service.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		res, info, err := srv.Run(context.Background(), cs[1], service.SubmitOptions{Shots: shots, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return res, info, srv.Stats()
	}
	fresh, _, _ := submit(cfg)
	cfg.StoreDir = storeDir
	stored, info, st := submit(cfg)
	if !info.Cached || st.StoreHits != 1 || st.Executed != 0 {
		t.Fatalf("circuit 1 after the CLI run: cached=%v store_hits=%d executed=%d, want a pure store hit",
			info.Cached, st.StoreHits, st.Executed)
	}
	if !reflect.DeepEqual(stored.Counts, fresh.Counts) {
		t.Fatalf("the store serves counts no fresh run reproduces:\nstored %v\nfresh  %v", stored.Counts, fresh.Counts)
	}
	if !reflect.DeepEqual(stored.Probabilities, fresh.Probabilities) {
		t.Fatal("stored probabilities differ from a fresh run")
	}
}
