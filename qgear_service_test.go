package qgear_test

import (
	"context"
	"testing"

	"qgear"
)

// TestPublicServerAPI drives the re-exported serving layer end to end:
// submit, wait, fetch, and confirm the content-addressed cache serves
// the identical resubmission.
func TestPublicServerAPI(t *testing.T) {
	srv, err := qgear.NewServer(qgear.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := qgear.GHZ(12, false)
	ctx := context.Background()

	res, info, err := srv.Run(ctx, c, qgear.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != qgear.JobDone || info.Cached {
		t.Fatalf("first run: %+v", info)
	}
	if got := res.Probabilities[0] + res.Probabilities[len(res.Probabilities)-1]; got < 0.999 {
		t.Fatalf("GHZ mass %g, want ~1", got)
	}

	res2, info2, err := srv.Run(ctx, qgear.GHZ(12, false), qgear.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Cached {
		t.Fatalf("identical resubmission not cached: %+v", info2)
	}
	if &res.Probabilities[0] != &res2.Probabilities[0] {
		t.Fatal("cached result is not the stored result")
	}

	st := srv.Stats()
	if st.Executed != 1 || st.CacheHits != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPublicFingerprintAndCacheKey(t *testing.T) {
	a := qgear.GHZ(10, false)
	b := qgear.GHZ(10, false)
	if qgear.Fingerprint(a) != qgear.Fingerprint(b) {
		t.Fatal("identical circuits disagree on fingerprint")
	}
	opts := qgear.RunOptions{Target: qgear.TargetNvidia}
	if qgear.CacheKey(a, opts) != qgear.CacheKey(b, opts) {
		t.Fatal("identical (circuit, options) disagree on cache key")
	}
	opts2 := opts
	opts2.PruneAngle = 1e-6
	if qgear.CacheKey(a, opts) == qgear.CacheKey(a, opts2) {
		t.Fatal("transform options ignored by cache key")
	}
	opts3 := opts
	opts3.Target = qgear.TargetAer
	if qgear.CacheKey(a, opts) == qgear.CacheKey(a, opts3) {
		t.Fatal("target ignored by cache key")
	}
}
