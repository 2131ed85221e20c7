package bench

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// The tests below validate the *shape* of every regenerated table and
// figure against the paper's qualitative claims. The quantitative anchors
// are the paper values quoted beside each assertion; only the super and
// method Verify cells (Tab. II) are pinned exactly, because the gas model
// is calibrated to them.

// The gas tables read no wall clock: two runs on either side of a second
// boundary give identical rows. A token whose expiry came from the wall
// clock would carry another signature in the second run, and with it
// another count of zero calldata bytes.
func TestGasTablesReproducible(t *testing.T) {
	tables := func() []any {
		t.Helper()
		ii, err := TableII()
		if err != nil {
			t.Fatal(err)
		}
		iii, err := TableIII()
		if err != nil {
			t.Fatal(err)
		}
		iv, err := TableIV()
		if err != nil {
			t.Fatal(err)
		}
		return []any{ii, iii, iv}
	}
	first := tables()
	time.Sleep(time.Until(time.Now().Truncate(time.Second).Add(time.Second + 10*time.Millisecond)))
	if second := tables(); !reflect.DeepEqual(first, second) {
		t.Errorf("gas tables differ between runs:\n%+v\n%+v", first, second)
	}
}

func TestTableIIShape(t *testing.T) {
	res, err := TableII()
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range []map[core.TokenType]CostRow{res.Plain, res.OneTime} {
		// Argument verification ≈ 3× super/method (paper: 330889 vs
		// 108282/115108).
		sup, met, arg := rows[core.SuperType], rows[core.MethodType], rows[core.ArgumentType]
		if !(arg.Verify > 2*sup.Verify && arg.Verify < 4*sup.Verify) {
			t.Errorf("argument verify %d not ≈3× super verify %d", arg.Verify, sup.Verify)
		}
		if met.Verify <= sup.Verify {
			t.Errorf("method verify %d not > super verify %d", met.Verify, sup.Verify)
		}
		// Verification dominates the total (paper: 56-85%).
		if 2*sup.Verify < sup.Total {
			t.Errorf("super verify %d below half of total %d", sup.Verify, sup.Total)
		}
		// USD within the paper's order of magnitude (< $0.25 per call).
		if arg.USD <= 0 || arg.USD > 0.25 {
			t.Errorf("argument USD = %f out of range", arg.USD)
		}
	}
	// Calibration anchors (exact by construction).
	if got := res.Plain[core.SuperType].Verify; got != 108282 {
		t.Errorf("super verify = %d, want 108282 (paper Tab. II)", got)
	}
	if got := res.Plain[core.MethodType].Verify; got != 115108 {
		t.Errorf("method verify = %d, want 115108 (paper Tab. II)", got)
	}
	// One-time adds bitmap cost but leaves verification unchanged.
	for _, tp := range tokenTypes {
		if res.OneTime[tp].Bitmap == 0 {
			t.Errorf("%s one-time has no bitmap cost", tp)
		}
		if res.Plain[tp].Bitmap != 0 {
			t.Errorf("%s plain token charged bitmap gas", tp)
		}
	}
	if s := res.Format(); !strings.Contains(s, "Tab. II") {
		t.Error("Format missing header")
	}
}

func TestTableIIIShape(t *testing.T) {
	res, err := TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Depths) != 4 {
		t.Fatalf("depths = %v", res.Depths)
	}
	oneDepthVerify := res.Rows[1].Verify
	for _, d := range res.Depths {
		row := res.Rows[d]
		// Verify grows linearly with the number of tokens (paper: 330914,
		// 662952, 994552, 1326506).
		lo, hi := uint64(d)*oneDepthVerify*95/100, uint64(d)*oneDepthVerify*105/100
		if row.Verify < lo || row.Verify > hi {
			t.Errorf("depth %d verify %d not ≈ %d×%d", d, row.Verify, d, oneDepthVerify)
		}
		// Parse appears only for multi-token transactions and equals
		// scanned-entries × GasParseEntry (1+2+...+d scans).
		wantParse := uint64(0)
		if d > 1 {
			wantParse = core.GasParseEntry * uint64(d*(d+1)/2)
		}
		if row.Parse != wantParse {
			t.Errorf("depth %d parse = %d, want %d", d, row.Parse, wantParse)
		}
		if row.Bitmap == 0 {
			t.Errorf("depth %d missing bitmap cost", d)
		}
	}
	if s := res.Format(); !strings.Contains(s, "Tab. III") {
		t.Error("Format missing header")
	}
}

func TestTableIVShape(t *testing.T) {
	res, err := TableIV()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// 35 tx/s × 3600 s = 126000 bits ≈ 15.38 KB (paper's first column).
	first := res.Rows[0]
	if first.Bits != 126000 {
		t.Errorf("bits = %d, want 126000", first.Bits)
	}
	if first.StorageKB < 15.0 || first.StorageKB > 15.8 {
		t.Errorf("storage = %.2f KB, want ≈15.38", first.StorageKB)
	}
	// Deployment gas within 25%% of the paper's 8849037.
	if first.DeployGas < 7_000_000 || first.DeployGas > 11_000_000 {
		t.Errorf("deploy gas = %d, want ≈8.8M", first.DeployGas)
	}
	// Cost is linear in the transaction rate (≈10× smaller per column;
	// the smallest bitmap deviates because word-count quantization and
	// the two window-state words dominate at that size).
	for i := 1; i < len(res.Rows); i++ {
		ratio := float64(res.Rows[i-1].DeployGas) / float64(res.Rows[i].DeployGas)
		if ratio < 6 || ratio > 12 {
			t.Errorf("deployment cost ratio %f, want ≈10", ratio)
		}
	}
	if s := res.Format(); !strings.Contains(s, "Tab. IV") {
		t.Error("Format missing header")
	}
}

func TestFigure8Shape(t *testing.T) {
	res, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Figure8Series {
		series := res.TotalGas[name]
		if len(series) != 4 {
			t.Fatalf("series %s has %d points", name, len(series))
		}
		for i := 1; i < len(series); i++ {
			if series[i] <= series[i-1] {
				t.Errorf("series %s not increasing: %v", name, series)
			}
		}
	}
	// Ordering at every count: argument-onetime > argument > method > super.
	for i := range res.Counts {
		if !(res.TotalGas["argument-onetime"][i] > res.TotalGas["argument"][i] &&
			res.TotalGas["argument"][i] > res.TotalGas["method"][i] &&
			res.TotalGas["method"][i] > res.TotalGas["super"][i]) {
			t.Errorf("ordering violated at count %d", res.Counts[i])
		}
	}
	if s := res.Format(); !strings.Contains(s, "Fig. 8") {
		t.Error("Format missing header")
	}
}

func TestFigure9Shape(t *testing.T) {
	res, err := Figure9(2) // up to 100 requests per batch in tests
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BatchSizes) != 3 {
		t.Fatalf("batch sizes = %v", res.BatchSizes)
	}
	for _, name := range Figure8Series {
		for i, v := range res.ReqPerSec[name] {
			if v <= 0 {
				t.Errorf("series %s batch %d: %f req/s", name, res.BatchSizes[i], v)
			}
		}
	}
	if s := res.Format(); !strings.Contains(s, "Fig. 9") {
		t.Error("Format missing header")
	}
}

func TestRuntimeToolsShape(t *testing.T) {
	res, err := RuntimeTools(50)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: Hydra ≈120 ms/req vs ECF ≈10 ms/req. The 12× gap comes from
	// geth testnet submission latency (3 heads → 3 round trips), which our
	// in-process heads do not pay, so we only assert the robust part of
	// the shape: both tools process requests at rates far above main-net
	// demand (the paper's conclusion), in the same ballpark of each other.
	if res.HydraReqPerSec < 100 || res.ECFReqPerSec < 100 {
		t.Fatalf("tool throughput below main-net demand: %+v", res)
	}
	ratio := res.HydraReqPerSec / res.ECFReqPerSec
	if ratio > 10 || ratio < 0.01 {
		t.Errorf("hydra/ecf throughput ratio %f wildly out of range", ratio)
	}
	if s := res.Format(); !strings.Contains(s, "VI-B") {
		t.Error("Format missing header")
	}
}

func TestBaselineShape(t *testing.T) {
	res, err := Baseline([]int{50, 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Populating cost is linear in N (paper: "a linear cost in the number
	// of update operations").
	ratio := float64(res.Rows[1].PopulateGas) / float64(res.Rows[0].PopulateGas)
	if ratio < 8 || ratio > 12 {
		t.Errorf("populate cost ratio %f, want ≈10", ratio)
	}
	// SMACS per-call cost is constant and orders of magnitude below the
	// whitelist maintenance cost.
	if res.SMACSPerCallGas == 0 || res.SMACSPerCallGas > res.Rows[1].PopulateGas/10 {
		t.Errorf("SMACS per-call %d not far below populate %d",
			res.SMACSPerCallGas, res.Rows[1].PopulateGas)
	}
	if s := res.Format(); !strings.Contains(s, "baseline") {
		t.Error("Format missing header")
	}
}
