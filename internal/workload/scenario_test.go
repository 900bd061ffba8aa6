package workload

import "testing"

func TestRegistryNamesAndAliases(t *testing.T) {
	want := []string{"join-heavy", "net-smoke", "range-wide", "write-storm", "ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered %v, want %v", got, want)
		}
	}
	for alias, canon := range map[string]string{
		"smoke": "ycsb-c", "write": "ycsb-a", "range": "ycsb-e", "join": "join-heavy", "net": "net-smoke", "stall": "write-storm",
	} {
		s, ok := Get(alias)
		if !ok || s.Name() != canon {
			t.Fatalf("alias %s resolved to %v, want %s", alias, s, canon)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("unknown scenario resolved")
	}
}

func TestScenarioDefaultsValidate(t *testing.T) {
	for _, name := range Names() {
		s, _ := Get(name)
		if err := s.Defaults().Validate(); err != nil {
			t.Fatalf("%s default config invalid: %v", name, err)
		}
		if s.Describe() == "" {
			t.Fatalf("%s has no description", name)
		}
	}
}

func TestParseScenarioOverrides(t *testing.T) {
	_, cfg, err := ParseScenario("ycsb-a:insert=0.3,miss=0.2,dist=hotspot,hotset=0.1,rate=5000,vector=0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.InsertFrac != 0.3 || cfg.MissFrac != 0.2 || cfg.Dist != "hotspot" ||
		cfg.HotSet != 0.1 || cfg.Rate != 5000 || cfg.Vector != 0 {
		t.Fatalf("overrides not applied: %+v", cfg)
	}

	// The bare name and its alias both resolve with defaults intact.
	s, cfg, err := ParseScenario("smoke")
	if err != nil || s.Name() != "ycsb-c" || cfg.Vector != 4096 {
		t.Fatalf("alias parse: %v %v %+v", s, err, cfg)
	}

	for _, bad := range []string{
		"nope",                         // unknown scenario
		"ycsb-a:insert",                // no value
		"ycsb-a:=0.5",                  // no key
		"ycsb-a:bogus=1",               // unknown key
		"ycsb-a:insert=2",              // fraction out of range
		"ycsb-a:theta=0.5",             // exponent out of range
		"ycsb-a:dist=gaussian",         // unknown distribution
		"ycsb-a:insert=0.6,delete=0.6", // mix sums past 1
		"ycsb-c:join=0.5",              // partial join mixes are rejected
	} {
		if _, _, err := ParseScenario(bad); err == nil {
			t.Fatalf("ParseScenario(%q) accepted", bad)
		}
	}
}

func runCfg(name string) (Scenario, ScenarioConfig) {
	s, _ := Get(name)
	cfg := s.Defaults()
	cfg.Domain, cfg.Workers, cfg.Seed = 1<<16, 2, 7
	return s, cfg
}

func TestStreamsDeterministicUnderSeed(t *testing.T) {
	for _, name := range Names() {
		s, cfg := runCfg(name)
		// One stream per factory: the insert-value sequence is shared
		// per-run, so a sibling stream drawing from the same factory would
		// legitimately perturb Vals.
		a0, b0, a1 := s.Streams(cfg)(0), s.Streams(cfg)(0), s.Streams(cfg)(1)
		diverged := false
		for i := 0; i < 5000; i++ {
			x, y := a0.Next(), b0.Next()
			if x != y {
				t.Fatalf("%s draw %d: same seed+worker diverged (%+v vs %+v)", name, i, x, y)
			}
			if x != a1.Next() {
				diverged = true
			}
		}
		if !diverged {
			t.Fatalf("%s: workers 0 and 1 produced identical streams", name)
		}
	}
}

func TestStreamMixFractions(t *testing.T) {
	_, cfg := runCfg("ycsb-a")
	st := cfg.keyStream(t)
	const draws = 40000
	counts := map[ReqKind]int{}
	for i := 0; i < draws; i++ {
		counts[st.Next().Kind]++
	}
	ins := float64(counts[ReqInsert]) / draws
	if ins < 0.47 || ins > 0.53 {
		t.Fatalf("ycsb-a insert fraction %.3f, want ≈0.50 (counts %v)", ins, counts)
	}
	if counts[ReqRead]+counts[ReqInsert] != draws {
		t.Fatalf("ycsb-a emitted foreign kinds: %v", counts)
	}
}

// keyStream is a test shorthand: worker 0's stream for the config,
// minted through the same AdHoc path the legacy driver uses.
func (c ScenarioConfig) keyStream(t *testing.T) Stream {
	t.Helper()
	return AdHoc("test", c).Streams(c)(0)
}

func TestRMWEmitsInsertAfterLookup(t *testing.T) {
	_, cfg := runCfg("ycsb-f")
	st := cfg.keyStream(t)
	prev := Req{Kind: ReqDelete} // sentinel that can't precede an insert
	inserts := 0
	for i := 0; i < 20000; i++ {
		r := st.Next()
		if r.Kind == ReqInsert {
			inserts++
			if prev.Kind != ReqRead || prev.Index != r.Index {
				t.Fatalf("draw %d: RMW insert of %d not preceded by its read (prev %+v)", i, r.Index, prev)
			}
		}
		prev = r
	}
	// Half the draws are RMW and each emits two requests (read + insert),
	// so inserts are ≈⅓ of the emitted stream.
	if inserts < 6000 || inserts > 7400 {
		t.Fatalf("ycsb-f emitted %d inserts in 20000 requests, want ≈⅓", inserts)
	}
}

func TestFreshInsertsGrowDomain(t *testing.T) {
	s, cfg := runCfg("ycsb-d")
	if got := s.Setup(cfg); got.NeedsBuild {
		t.Fatalf("ycsb-d setup %+v, want no build side", got)
	}
	st := s.Streams(cfg)(0)
	fresh := 0
	for i := 0; i < 20000; i++ {
		r := st.Next()
		if r.Kind == ReqInsert {
			if r.Index < cfg.Domain {
				t.Fatalf("draw %d: ycsb-d insert %d below the domain — FreshFrac=1 must mint new keys", i, r.Index)
			}
			fresh++
		} else if r.Miss {
			t.Fatalf("draw %d: read-latest emitted a miss probe", i)
		}
	}
	if fresh == 0 {
		t.Fatal("ycsb-d emitted no inserts")
	}
}

func TestJoinScenarioSetup(t *testing.T) {
	s, cfg := runCfg("join-heavy")
	if got := s.Setup(cfg); !got.NeedsBuild {
		t.Fatalf("join-heavy setup %+v, want NeedsBuild", got)
	}
	if cfg.Mixed() || cfg.Vector == 0 {
		t.Fatalf("join-heavy should be a vectorizable single-kind stream: %+v", cfg)
	}
	st := s.Streams(cfg)(0)
	for i := 0; i < 1000; i++ {
		if k := st.Next().Kind; k != ReqJoin {
			t.Fatalf("draw %d: join-heavy emitted %v", i, k)
		}
	}
}

func TestMixedReportsAdmission(t *testing.T) {
	cases := []struct {
		name  string
		mixed bool
	}{
		{"ycsb-a", true}, {"ycsb-b", true}, {"ycsb-c", false},
		{"ycsb-d", true}, {"ycsb-e", true}, {"ycsb-f", true},
		{"join-heavy", false}, {"range-wide", false}, {"net-smoke", false},
	}
	for _, c := range cases {
		s, _ := Get(c.name)
		if got := s.Defaults().Mixed(); got != c.mixed {
			t.Fatalf("%s Mixed() = %v, want %v", c.name, got, c.mixed)
		}
	}
}

func FuzzParseScenario(f *testing.F) {
	f.Add("smoke")
	f.Add("ycsb-a:insert=0.3,miss=0.2")
	f.Add("ycsb-e:width=64,fresh=1")
	f.Add("join-heavy:vector=0")
	f.Add("range-wide:dist=hotspot,hotset=0.1,hotopn=0.9")
	f.Add("ycsb-d:theta=1.5,rate=100000")
	f.Add("nope:key=val")
	f.Add("ycsb-a:insert=,,=,")
	f.Add(":")
	f.Add("ycsb-c:vector=-1")
	f.Fuzz(func(t *testing.T, spec string) {
		s, cfg, err := ParseScenario(spec)
		if err != nil {
			return
		}
		// Anything accepted must be a registered scenario with a config
		// that validates and can mint a working stream.
		if s == nil {
			t.Fatalf("ParseScenario(%q): nil scenario without error", spec)
		}
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("ParseScenario(%q) accepted an invalid config: %v", spec, verr)
		}
		cfg.Domain, cfg.Workers, cfg.Seed = 1024, 1, 1
		st := s.Streams(cfg)(0)
		for i := 0; i < 64; i++ {
			r := st.Next()
			if r.Index < 0 {
				t.Fatalf("ParseScenario(%q): stream emitted negative index %+v", spec, r)
			}
		}
	})
}
