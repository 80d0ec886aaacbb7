package chaos

import (
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"cellfi/internal/faults"
	"cellfi/internal/invariant"
)

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestChaosMatrix is the acceptance soak: seeded chaos worlds across
// the crash/restart × incumbent-storm × DB-failover × clock-skew
// matrix (the seed's low bits cover all 16 cells every 16 seeds), the
// online invariant watchdog attached to every one, zero violations.
//
// Scale knobs (for `make chaos-soak`):
//
//	CHAOS_WORLD_SEEDS — number of worlds (default 48; soak uses 100)
//	CHAOS_WORLD_STEPS — virtual seconds per world (default 240)
func TestChaosMatrix(t *testing.T) {
	seeds := envInt("CHAOS_WORLD_SEEDS", 48)
	steps := envInt("CHAOS_WORLD_STEPS", 240)
	if testing.Short() {
		seeds = 16
	}
	base := Config{Steps: steps, MaxSkew: 2 * time.Second}
	var agg Result
	for seed := 0; seed < seeds; seed++ {
		cfg := FromSeed(int64(seed), base)
		res, err := Run(cfg, nil)
		if err != nil {
			t.Fatalf("seed %d: harness: %v", seed, err)
		}
		if res.First != nil {
			t.Fatalf("seed %d: invariant violation: %v (of %d)", seed, res.First, res.Violations)
		}
		if res.TxRecords == 0 {
			t.Fatalf("seed %d: world never transmitted; nothing was verified", seed)
		}
		if cfg.Crashes && res.Crashes == 0 {
			t.Errorf("seed %d: crash axis on but no crash scheduled", seed)
		}
		if cfg.Storms && res.StormArrivals == 0 {
			t.Errorf("seed %d: storm axis on but no storm scheduled", seed)
		}
		agg.TxRecords += res.TxRecords
		agg.Contacts += res.Contacts
		agg.Crashes += res.Crashes
		agg.Restarts += res.Restarts
		agg.StormArrivals += res.StormArrivals
		agg.StormDeparts += res.StormDeparts
		agg.Failovers += res.Failovers
		agg.Vacates += res.Vacates
		agg.SkewedAPs += res.SkewedAPs
		agg.Records += res.Records
	}
	// The matrix must exercise every axis somewhere — a fleet that
	// never crashed, stormed, failed over or skewed proves nothing.
	if agg.Crashes == 0 || agg.Restarts == 0 {
		t.Errorf("matrix never exercised crash/restart: %+v", agg)
	}
	if agg.StormArrivals == 0 || agg.StormDeparts == 0 {
		t.Errorf("matrix never exercised incumbent storms: %+v", agg)
	}
	if agg.Failovers == 0 {
		t.Errorf("matrix never exercised DB failover: %+v", agg)
	}
	if agg.SkewedAPs == 0 {
		t.Errorf("matrix never exercised clock skew: %+v", agg)
	}
	if agg.Vacates == 0 {
		t.Errorf("matrix never forced a vacate: %+v", agg)
	}
	if agg.Contacts == 0 || agg.Records == 0 {
		t.Fatalf("matrix was vacuous: %+v", agg)
	}
	t.Logf("matrix: %d worlds, tx=%d contacts=%d crashes=%d restarts=%d storms=%d/%d failovers=%d vacates=%d records=%d",
		seeds, agg.TxRecords, agg.Contacts, agg.Crashes, agg.Restarts,
		agg.StormArrivals, agg.StormDeparts, agg.Failovers, agg.Vacates, agg.Records)
}

// TestWatchdogCatchesBrokenGate is the non-vacuity proof the issue
// demands: with the selector's vacate fail-safe deliberately disabled
// on AP 0 and both database endpoints dead for well over the ETSI
// minute, the watchdog must flag tx-past-vacate-budget and identify
// the first violating record.
func TestWatchdogCatchesBrokenGate(t *testing.T) {
	outage := []faults.Window{{From: 60 * time.Second, To: 220 * time.Second}}
	cfg := Config{
		Seed:           1,
		APs:            3,
		Steps:          260,
		BreakVacate:    true,
		PrimaryOutages: outage,
		ReplicaOutages: outage,
	}
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	if res.First == nil {
		t.Fatalf("broken gate not caught: %+v", res)
	}
	v := res.First
	if v.Rule != invariant.RuleTxPastVacateBudget {
		t.Fatalf("rule = %q, want %q (violation: %v)", v.Rule, invariant.RuleTxPastVacateBudget, v)
	}
	if v.Rec.AP != 0 {
		t.Fatalf("violating AP = %d, want 0 (the broken one); violation: %v", v.Rec.AP, v)
	}
	if v.Index <= 0 || v.Index >= res.Records {
		t.Fatalf("first violating record index %d out of stream [0,%d)", v.Index, res.Records)
	}
	if res.Err() == nil {
		t.Fatal("Result.Err() nil despite violation")
	}
	// The healthy APs must have vacated cleanly: every violation in
	// the stream belongs to the broken AP.
	for _, w := range []int32{1, 2} {
		if v.Rec.AP == w {
			t.Fatalf("healthy AP %d flagged", w)
		}
	}
}

// TestWatchdogIgnoresHealthyFleetUnderSameOutage is the control for
// the broken-gate proof: the identical double outage with the
// fail-safe intact yields zero violations — so the catch above is the
// broken gate, not the outage.
func TestWatchdogIgnoresHealthyFleetUnderSameOutage(t *testing.T) {
	outage := []faults.Window{{From: 60 * time.Second, To: 220 * time.Second}}
	cfg := Config{
		Seed:           1,
		APs:            3,
		Steps:          260,
		PrimaryOutages: outage,
		ReplicaOutages: outage,
	}
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	if res.First != nil {
		t.Fatalf("healthy fleet flagged: %v", res.First)
	}
	if res.Vacates == 0 {
		t.Fatalf("outage did not force vacates: %+v", res)
	}
	if res.TxRecords == 0 {
		t.Fatalf("fleet never transmitted: %+v", res)
	}
}

// TestChaosDeterminism: the same seed yields the byte-identical
// result, including the trace stream the watchdog consumed.
func TestChaosDeterminism(t *testing.T) {
	cfg := FromSeed(7, Config{Steps: 200, MaxSkew: 2 * time.Second})
	var a, b capture
	ra, err := Run(cfg, &a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(cfg, &b)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(ra)
	jb, _ := json.Marshal(rb)
	if string(ja) != string(jb) {
		t.Fatalf("results diverged:\n--- A\n%s\n--- B\n%s", ja, jb)
	}
	if len(a.recs) != len(b.recs) {
		t.Fatalf("stream lengths diverged: %d vs %d", len(a.recs), len(b.recs))
	}
	for i := range a.recs {
		if a.recs[i] != b.recs[i] {
			t.Fatalf("stream diverged at record %d: %v vs %v", i, a.recs[i], b.recs[i])
		}
	}
	if len(a.recs) == 0 {
		t.Fatal("world emitted no records")
	}
}

// TestRunJoinsRefreshWorkers: Run keeps one refresh worker per fleet
// slot for the whole world and must join every one before it returns,
// so a campaign of worlds leaks no goroutines. The count is polled
// briefly, since a goroutine that is about to exit, or the runtime's
// finalizer goroutine while it runs, can be counted for a moment;
// leaked workers block forever and never settle.
func TestRunJoinsRefreshWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	for seed := int64(0); seed < 4; seed++ {
		if _, err := Run(FromSeed(seed, Config{Steps: 60, MaxSkew: time.Second}), nil); err != nil {
			t.Fatal(err)
		}
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			t.Fatalf("seed %d: %d goroutines after Run, %d before", seed, after, before)
		}
	}
}
