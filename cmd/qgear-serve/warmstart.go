package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/observable"
	"qgear/internal/service"
)

// The warm-restart acceptance check: phase "seed" starts a server with
// -store-dir, pushes a deterministic set of jobs through the real HTTP
// API, and shuts down (spilling every resident artifact to disk);
// phase "verify" starts a fresh server on the same directory, submits
// the identical circuits, and asserts that every one is answered from
// the store — no simulation — with probabilities bit-identical and
// fixed-seed shot counts exactly equal to an independent fresh
// simulation. Running the two phases as separate invocations (as
// `make ci-warmstart` does) exercises a genuine process kill/restart;
// -phase both runs them back to back in one process for local
// convenience.

func cmdWarmstart(args []string) error {
	fs := flag.NewFlagSet("warmstart", flag.ExitOnError)
	cfg := serviceFlags(fs)
	phase := fs.String("phase", "both", "seed | verify | both")
	jobs := fs.Int("jobs", 8, "distinct circuits to seed and verify")
	qubits := fs.Int("qubits", 10, "circuit width")
	shots := fs.Int("shots", 256, "shots per job (fixed per-job seeds)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.StoreDir == "" {
		return fmt.Errorf("warmstart: -store-dir is required (persistence is the thing under test)")
	}
	switch *phase {
	case "seed":
		return warmstartSeed(cfg, *jobs, *qubits, *shots)
	case "verify":
		return warmstartVerify(cfg, *jobs, *qubits, *shots)
	case "both":
		if err := warmstartSeed(cfg, *jobs, *qubits, *shots); err != nil {
			return err
		}
		return warmstartVerify(cfg, *jobs, *qubits, *shots)
	default:
		return fmt.Errorf("warmstart: unknown phase %q", *phase)
	}
}

// warmstartCircuit builds the i-th deterministic check circuit —
// reconstructable bit-for-bit by any later process.
func warmstartCircuit(n, i int) *circuit.Circuit {
	c := circuit.GHZ(n, false)
	c.Name = fmt.Sprintf("warmstart-%d", i)
	c.RZ(1e-6*float64(i+1), 0)
	return c
}

// warmstartHamiltonian is the deterministic observable of the
// expectation-job leg of the check.
func warmstartHamiltonian(n int) *observable.Hamiltonian {
	return observable.TransverseFieldIsing(n, 1.0, 0.7)
}

// startServer boots the service plus a real HTTP listener on it.
func startServer(cfg *service.Config) (*service.Server, *httptest.Server, error) {
	srv, err := service.New(*cfg)
	if err != nil {
		return nil, nil, err
	}
	return srv, httptest.NewServer(srv.Handler()), nil
}

func warmstartSeed(cfg *service.Config, jobs, qubits, shots int) error {
	srv, ts, err := startServer(cfg)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 60 * time.Second}
	fmt.Printf("warmstart seed: %d jobs + 1 expectation, GHZ-%d, shots=%d -> store %s\n", jobs, qubits, shots, cfg.StoreDir)
	for i := 0; i < jobs; i++ {
		if _, err := pushJob(client, ts.URL, warmstartCircuit(qubits, i), shots, uint64(i)); err != nil {
			ts.Close()
			srv.Close()
			return fmt.Errorf("warmstart seed: job %d: %w", i, err)
		}
	}
	// One expectation job rides along: its ⟨H⟩ artifact must survive the
	// restart exactly like the probability results.
	if _, err := pushExpJob(client, ts.URL, warmstartCircuit(qubits, 0), warmstartHamiltonian(qubits)); err != nil {
		ts.Close()
		srv.Close()
		return fmt.Errorf("warmstart seed: expectation job: %w", err)
	}
	st := srv.Stats()
	ts.Close()
	if err := srv.Close(); err != nil { // spills resident entries to the store
		return err
	}
	if st.Executed < uint64(jobs)+1 {
		return fmt.Errorf("warmstart seed: executed %d of %d jobs", st.Executed, jobs+1)
	}
	fmt.Printf("warmstart seed: done (%d executed); artifacts spilled on shutdown\n", st.Executed)
	return nil
}

func warmstartVerify(cfg *service.Config, jobs, qubits, shots int) error {
	srv, ts, err := startServer(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	defer ts.Close()
	client := &http.Client{Timeout: 60 * time.Second}

	// Independent ground truth: simulate each circuit fresh through the
	// same pipeline the service uses, so "bit-identical" means against
	// a real simulation, not against whatever the store said.
	ecfg := srv.Config()
	opts := backend.Config{
		FusionWindow: ecfg.FusionWindow, PruneAngle: ecfg.PruneAngle,
		TileBits: ecfg.TileBits, PlanFusion: ecfg.PlanFusion,
		Target: ecfg.Target, Devices: ecfg.Devices, Shots: shots,
	}

	fmt.Printf("warmstart verify: %d repeat jobs against restarted server\n", jobs)
	for i := 0; i < jobs; i++ {
		c := warmstartCircuit(qubits, i)
		res, err := pushJob(client, ts.URL, c, shots, uint64(i))
		if err != nil {
			return fmt.Errorf("warmstart verify: job %d: %w", i, err)
		}
		if !res.Cached {
			return fmt.Errorf("warmstart verify: job %d was simulated, not served from the store", i)
		}
		refopts := opts
		refopts.Seed = uint64(i)
		ref, err := backend.Run(c, refopts)
		if err != nil {
			return fmt.Errorf("warmstart verify: reference run %d: %w", i, err)
		}
		if len(res.Probabilities) != len(ref.Probabilities) {
			return fmt.Errorf("warmstart verify: job %d: %d probabilities, reference has %d",
				i, len(res.Probabilities), len(ref.Probabilities))
		}
		for k := range ref.Probabilities {
			if res.Probabilities[k] != ref.Probabilities[k] {
				return fmt.Errorf("warmstart verify: job %d: probability[%d] = %v, reference %v (max |Δp| must be 0)",
					i, k, res.Probabilities[k], ref.Probabilities[k])
			}
		}
		refCounts := make(map[string]int, len(ref.Counts))
		for idx, n := range ref.Counts {
			refCounts[bitstring(idx, qubits)] = n
		}
		if len(res.Counts) != len(refCounts) {
			return fmt.Errorf("warmstart verify: job %d: %d count buckets, reference %d", i, len(res.Counts), len(refCounts))
		}
		for k, v := range refCounts {
			if res.Counts[k] != v {
				return fmt.Errorf("warmstart verify: job %d: counts[%s] = %d, reference %d", i, k, res.Counts[k], v)
			}
		}
	}
	// The expectation artifact must also answer from disk, bit-identical
	// to an independent fresh evaluation.
	expC := warmstartCircuit(qubits, 0)
	expH := warmstartHamiltonian(qubits)
	expRes, err := pushExpJob(client, ts.URL, expC, expH)
	if err != nil {
		return fmt.Errorf("warmstart verify: expectation job: %w", err)
	}
	if !expRes.Cached {
		return fmt.Errorf("warmstart verify: expectation job was simulated, not served from the store")
	}
	if expRes.ExpValue == nil {
		return fmt.Errorf("warmstart verify: expectation job returned no expval")
	}
	refopts := opts
	refopts.Shots = 0
	expRef, err := backend.RunExpectation(expC, expH, refopts)
	if err != nil {
		return fmt.Errorf("warmstart verify: expectation reference: %w", err)
	}
	if *expRes.ExpValue != *expRef.ExpValue {
		return fmt.Errorf("warmstart verify: stored ⟨H⟩ = %.17g, reference %.17g (must be bit-identical)",
			*expRes.ExpValue, *expRef.ExpValue)
	}

	st := srv.Stats()
	if st.StoreHits != uint64(jobs)+1 {
		return fmt.Errorf("warmstart verify: %d store hits, want %d", st.StoreHits, jobs+1)
	}
	if st.Executed != 0 {
		return fmt.Errorf("warmstart verify: %d simulations ran; repeats must be store hits", st.Executed)
	}
	fmt.Printf("warmstart verify: PASS — %d/%d store hits, 0 simulations, probabilities, counts and ⟨H⟩ bit-identical\n",
		st.StoreHits, jobs+1)
	return nil
}

func bitstring(idx uint64, n int) string {
	return fmt.Sprintf("%0*b", n, idx)
}

// pushExpJob submits one expectation job and polls the result back.
func pushExpJob(client *http.Client, base string, c *circuit.Circuit, h *observable.Hamiltonian) (*service.ResultResponse, error) {
	return push(client, base, service.SubmitRequest{
		Kind: "expectation", Circuit: service.FromCircuit(c), Hamiltonian: service.FromHamiltonian(h),
	})
}

// pushJob submits one circuit and polls the full result back.
func pushJob(client *http.Client, base string, c *circuit.Circuit, shots int, seed uint64) (*service.ResultResponse, error) {
	return push(client, base, service.SubmitRequest{
		Kind: "simulate", Circuit: service.FromCircuit(c), Shots: shots, Seed: seed,
	})
}

// retryAfterDelay converts a 429's Retry-After hint into a sleep: the
// hinted whole seconds when present and sane (capped at 5s — a client
// should not be parked indefinitely by one response), otherwise the
// caller's fallback backoff.
func retryAfterDelay(h http.Header, fallback time.Duration) time.Duration {
	secs, err := strconv.Atoi(h.Get("Retry-After"))
	if err != nil || secs < 0 {
		return fallback
	}
	d := time.Duration(secs) * time.Second
	if max := 5 * time.Second; d > max {
		d = max
	}
	return d
}

func push(client *http.Client, base string, req service.SubmitRequest) (*service.ResultResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var info service.JobInfo
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 200 {
			// Shed by the bounded queue: honor the server's hint.
			time.Sleep(retryAfterDelay(resp.Header, time.Duration(attempt+1)*time.Millisecond))
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			return nil, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		}
		if err != nil {
			return nil, err
		}
		break
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		r, err := client.Get(base + "/v1/results/" + info.ID + "?full=1")
		if err != nil {
			return nil, err
		}
		if r.StatusCode == http.StatusOK {
			var out service.ResultResponse
			err = json.NewDecoder(r.Body).Decode(&out)
			r.Body.Close()
			if err != nil {
				return nil, err
			}
			if out.State == service.StateFailed {
				return nil, fmt.Errorf("job %s failed", info.ID)
			}
			return &out, nil
		}
		r.Body.Close()
		if r.StatusCode != http.StatusAccepted {
			return nil, fmt.Errorf("poll %s: HTTP %d", info.ID, r.StatusCode)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s: poll deadline exceeded", info.ID)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
