package georep

import (
	"strings"
	"testing"
)

// TestManagerConfigValidation drives NewManager through the config edge
// cases: degenerate replication degrees, inverted k ranges, economic
// policy halves, decay-vs-window interaction, and candidate mistakes.
func TestManagerConfigValidation(t *testing.T) {
	d := smallDeployment(t)
	candidates := []int{0, 1, 2, 3, 4, 5}
	base := func() ManagerConfig {
		return ManagerConfig{K: 2, Candidates: candidates}
	}

	cases := []struct {
		name    string
		mutate  func(*ManagerConfig)
		wantErr string // substring of the expected error; "" means valid
	}{
		{"happy path", func(c *ManagerConfig) {}, ""},
		{"zero K", func(c *ManagerConfig) { c.K = 0 }, "K must be positive"},
		{"negative K", func(c *ManagerConfig) { c.K = -3 }, "K must be positive"},
		{"negative micro budget defaults", func(c *ManagerConfig) { c.MicroClusters = -1 }, ""},
		{
			"MaxReplicas below MinReplicas",
			func(c *ManagerConfig) { c.MinReplicas, c.MaxReplicas = 3, 1 },
			"invalid k range",
		},
		{
			"K outside replica range",
			func(c *ManagerConfig) { c.MinReplicas, c.MaxReplicas = 3, 4 },
			"outside [3,4]",
		},
		{
			"MaxReplicas beyond candidates",
			func(c *ManagerConfig) { c.MinReplicas, c.MaxReplicas = 2, len(candidates)+1 },
			"candidates",
		},
		{
			"negative demand thresholds",
			func(c *ManagerConfig) {
				c.MinReplicas, c.MaxReplicas = 1, 3
				c.GrowAbove, c.ShrinkBelow = -1, 0
			},
			"negative demand",
		},
		{
			"shrink threshold above grow",
			func(c *ManagerConfig) {
				c.MinReplicas, c.MaxReplicas = 1, 3
				c.GrowAbove, c.ShrinkBelow = 10, 20
			},
			"exceeds",
		},
		{"negative decay", func(c *ManagerConfig) { c.DecayFactor = -0.1 }, "DecayFactor"},
		{"decay above one", func(c *ManagerConfig) { c.DecayFactor = 1.5 }, "DecayFactor"},
		{"negative window", func(c *ManagerConfig) { c.WindowEpochs = -2 }, "WindowEpochs"},
		// WindowEpochs wins over DecayFactor by design: both set is valid
		// (decay is documented as ignored), even with a decay value that
		// would be rejected on its own... but only an in-range one.
		{
			"window with decay set",
			func(c *ManagerConfig) { c.WindowEpochs = 4; c.DecayFactor = 0.9 },
			"",
		},
		{
			"window with invalid decay still rejected",
			func(c *ManagerConfig) { c.WindowEpochs = 4; c.DecayFactor = 2 },
			"DecayFactor",
		},
		{"gain of one", func(c *ManagerConfig) { c.MinRelativeGain = 1 }, "MinRelativeGain"},
		{"negative gain", func(c *ManagerConfig) { c.MinRelativeGain = -0.5 }, "MinRelativeGain"},
		{
			"economics half-configured",
			func(c *ManagerConfig) { c.MigrationCostPerByte = 0.1 },
			"CostPerByte set but",
		},
		{
			"economics fully configured",
			func(c *ManagerConfig) {
				c.MigrationCostPerByte = 0.1
				c.LatencyValuePerMsAccess = 0.01
				c.ObjectBytes = 1 << 20
			},
			"",
		},
		{
			"candidate out of range",
			func(c *ManagerConfig) { c.Candidates = []int{0, 1, 9999} },
			"out of range",
		},
		{
			"initial replica not a candidate",
			func(c *ManagerConfig) { c.InitialReplicas = []int{0, 7} },
			"not a candidate",
		},
		{
			"initial replica count mismatch",
			func(c *ManagerConfig) { c.InitialReplicas = []int{0} },
			"initial replicas",
		},
		{"write fraction above one", func(c *ManagerConfig) { c.WriteFraction = 1.2 }, "WriteFraction"},
		{"unknown leader policy", func(c *ManagerConfig) { c.LeaderPolicy = "nearest" }, "leader policy"},
		{
			"write path fully configured",
			func(c *ManagerConfig) { c.WriteFraction = 0.3; c.LeaderPolicy = "fanout" },
			"",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			m, err := d.NewManager(cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if got := m.K(); got != cfg.K {
					t.Errorf("K() = %d, want %d", got, cfg.K)
				}
				return
			}
			if err == nil {
				t.Fatalf("config accepted, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestManagerWritePathReport checks the write path surfaces through the
// public manager: a write-enabled config names a leader in every epoch
// report, a read-only config pins it to -1.
func TestManagerWritePathReport(t *testing.T) {
	d := smallDeployment(t)
	run := func(wf float64) EpochReport {
		m, err := d.NewManager(ManagerConfig{
			K: 2, Candidates: []int{0, 1, 2, 3}, WriteFraction: wf,
		})
		if err != nil {
			t.Fatalf("NewManager: %v", err)
		}
		for i := 0; i < 40; i++ {
			if _, _, err := m.RecordAccess(4, 1); err != nil {
				t.Fatalf("RecordAccess: %v", err)
			}
		}
		rep, err := m.EndEpoch(7)
		if err != nil {
			t.Fatalf("EndEpoch: %v", err)
		}
		return rep
	}
	if rep := run(0); rep.Leader != -1 || rep.WriteCostOldMs != 0 {
		t.Fatalf("read-only report leaked write path: %+v", rep)
	}
	rep := run(0.4)
	if rep.Leader < 0 {
		t.Fatalf("write-enabled report has no leader: %+v", rep)
	}
	found := false
	for _, r := range rep.Replicas {
		if r == rep.Leader {
			found = true
		}
	}
	if !found {
		t.Fatalf("leader %d not in placement %v", rep.Leader, rep.Replicas)
	}
	if rep.WriteCostOldMs <= 0 {
		t.Fatalf("write cost not computed: %+v", rep)
	}
}

// TestConstructorsHonourOrRefuse drives one ManagerConfig field at a time
// through the four public constructors: each either honours it — shown by
// an out-of-range value reaching the validation that names it, which a
// dropped field never would — or refuses it with an error naming it.
func TestConstructorsHonourOrRefuse(t *testing.T) {
	d := smallDeployment(t)
	candidates, clients := splitNodes(d, 8)
	led, err := OpenLedger(t.TempDir(), LedgerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()

	ctors := []struct {
		name string
		new  func(ManagerConfig) error
	}{
		{"NewManager", func(c ManagerConfig) error { _, err := d.NewManager(c); return err }},
		{"NewMultiObject", func(c ManagerConfig) error {
			_, err := d.NewMultiObject(MultiObjectConfig{Object: c})
			return err
		}},
		{"NewGroupSet", func(c ManagerConfig) error { _, err := d.NewGroupSet(c); return err }},
		{"Replay", func(c ManagerConfig) error {
			_, err := d.Replay([]AccessEvent{{Client: clients[0], Group: "g", Bytes: 1}},
				ReplayConfig{Manager: c, EpochMs: 10, Seed: 1})
			return err
		}},
	}
	// want holds, per constructor in the order above, a substring of the
	// expected error; "" means the config is accepted.
	cases := []struct {
		name   string
		mutate func(*ManagerConfig)
		want   [4]string
	}{
		{"plain", func(c *ManagerConfig) {}, [4]string{}},
		{"IngestShards", func(c *ManagerConfig) { c.IngestShards = 3 },
			[4]string{"IngestShards", "IngestShards", "IngestShards", "IngestShards"}},
		{"Quorum", func(c *ManagerConfig) { c.Quorum = 1.5 },
			[4]string{"Quorum", "Quorum", "Quorum", "Quorum"}},
		{"WriteFraction", func(c *ManagerConfig) { c.WriteFraction = 1.2 },
			[4]string{"WriteFraction", "WriteFraction", "WriteFraction", "WriteFraction"}},
		{"LeaderPolicy", func(c *ManagerConfig) { c.LeaderPolicy = "nearest" },
			[4]string{"leader policy", "leader policy", "leader policy", "leader policy"}},
		{"write path on", func(c *ManagerConfig) { c.WriteFraction = 0.3; c.LeaderPolicy = "fanout" }, [4]string{}},
		{"adaptive k", func(c *ManagerConfig) { c.MinReplicas, c.MaxReplicas, c.GrowAbove = 1, 3, 100 },
			[4]string{"", "pinned k", "", ""}},
		{"pinned k range", func(c *ManagerConfig) { c.MinReplicas, c.MaxReplicas = 2, 2 }, [4]string{}},
		{"InitialReplicas", func(c *ManagerConfig) { c.InitialReplicas = []int{1, 2} },
			[4]string{"", "ManagerConfig.InitialReplicas", "ManagerConfig.InitialReplicas", "ManagerConfig.InitialReplicas"}},
		{"Tracing", func(c *ManagerConfig) { c.Tracing = true },
			[4]string{"", "ManagerConfig.Tracing", "ManagerConfig.Tracing", "ManagerConfig.Tracing"}},
		{"Ledger", func(c *ManagerConfig) { c.Ledger = led },
			[4]string{"", "", "ManagerConfig.Ledger", "ManagerConfig.Ledger"}},
		{"Provenance", func(c *ManagerConfig) { c.Provenance = true; c.BurnRate = func() float64 { return 0 } },
			[4]string{"", "", "ManagerConfig.Provenance", "ManagerConfig.Provenance"}},
	}
	for _, tc := range cases {
		for i, ctor := range ctors {
			cfg := ManagerConfig{K: 2, Candidates: candidates}
			tc.mutate(&cfg)
			err := ctor.new(cfg)
			switch want := tc.want[i]; {
			case want == "" && err != nil:
				t.Errorf("%s / %s: unexpected error: %v", tc.name, ctor.name, err)
			case want != "" && err == nil:
				t.Errorf("%s / %s: config accepted, want error containing %q", tc.name, ctor.name, want)
			case want != "" && !strings.Contains(err.Error(), want):
				t.Errorf("%s / %s: error %q does not contain %q", tc.name, ctor.name, err, want)
			}
		}
	}
}
