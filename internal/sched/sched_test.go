package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/campaign"
	"repro/internal/channel"
	"repro/internal/engine"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/waveform"
)

// tinyChain is a minimal valid chain configuration so tests that
// actually run the simulator stay fast.
func tinyChain() pusch.ChainConfig {
	return pusch.ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 4, NB: 4, NL: 1,
		NSymb: 3, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
	}
}

// tinyUseCase is a minimal valid use-case configuration: tests only
// need a non-chain scenario for FromScenarios to skip, so keep the
// campaign runner's pass over it cheap.
func tinyUseCase() pusch.UseCaseConfig {
	return pusch.UseCaseConfig{
		Cluster: arch.MemPool(),
		Symbols: 2, DataSymbols: 1,
		NFFT: 64, NR: 4, NB: 4, NL: 2,
		CholPerRound: 1,
	}
}

// stubScheduler returns a scheduler whose measurement is synthetic:
// service time = cfg.Seed cycles (so tests choose per-job service times
// via the seed), payload 1000 bits, and an error whenever SNRdB < 0.
func stubScheduler(cfg Config) *Scheduler {
	return &Scheduler{
		Cfg: cfg,
		measure: func(_ *engine.Machines, c pusch.ChainConfig) (report.SlotRecord, error) {
			if c.SNRdB < 0 {
				return report.SlotRecord{}, fmt.Errorf("stub: bad job")
			}
			return report.SlotRecord{
				Kind:        "chain",
				TotalCycles: int64(c.Seed),
				PayloadBits: 1000,
			}, nil
		},
	}
}

// stubJob builds a job with the given arrival and synthetic service
// time (carried in the chain seed, see stubScheduler).
func stubJob(name string, arrival, service int64) Job {
	cfg := pusch.ChainConfig{Seed: uint64(service)}
	return Job{Name: name, Arrival: arrival, Chain: cfg}
}

func TestBackpressureDrops(t *testing.T) {
	s := stubScheduler(Config{Servers: 1, QueueDepth: 1, Workers: 1})
	jobs := []Job{
		stubJob("a", 0, 100),
		stubJob("b", 0, 100),
		stubJob("c", 0, 100),
		stubJob("d", 0, 100),
	}
	results, sum := s.Serve(jobs)
	wantOutcomes := []Outcome{Served, Served, Dropped, Dropped}
	for i, want := range wantOutcomes {
		if results[i].Outcome != want {
			t.Fatalf("job %d (%s): outcome %s, want %s", i, results[i].Name, results[i].Outcome, want)
		}
	}
	// FIFO: a runs [0,100), b waits 100 cycles and runs [100,200).
	a, b := results[0].Record, results[1].Record
	if a.StartCycle != 0 || a.FinishCycle != 100 || a.WaitCycles != 0 {
		t.Fatalf("a scheduled %+v", a)
	}
	if b.StartCycle != 100 || b.FinishCycle != 200 || b.WaitCycles != 100 || b.LatencyCycles != 200 {
		t.Fatalf("b scheduled %+v", b)
	}
	if sum.Served != 2 || sum.Dropped != 2 || sum.DropRate != 0.5 {
		t.Fatalf("summary %+v", sum)
	}
	if sum.MeanWaitCycles != 50 || sum.MaxWaitCycles != 100 {
		t.Fatalf("wait stats %+v", sum)
	}
	// Horizon: first arrival 0 to last finish 200. Offered counts the
	// dropped payload too: 4000 bits offered, 2000 served.
	if sum.HorizonCycles != 200 || sum.OfferedBits != 4000 || sum.ServedBits != 2000 {
		t.Fatalf("traffic accounting %+v", sum)
	}
	if sum.Utilization != 1.0 {
		t.Fatalf("one server busy the whole horizon: utilization %v", sum.Utilization)
	}
}

func TestMultiServerAndLossSystem(t *testing.T) {
	// Two servers, no queue (pure loss): simultaneous arrivals beyond
	// the server count are dropped.
	s := stubScheduler(Config{Servers: 2, QueueDepth: -1, Workers: 1})
	jobs := []Job{
		stubJob("a", 0, 100),
		stubJob("b", 0, 150),
		stubJob("c", 0, 100),  // both servers busy, no queue -> dropped
		stubJob("d", 120, 50), // server 0 free at 100 -> served immediately
	}
	results, sum := s.Serve(jobs)
	want := []Outcome{Served, Served, Dropped, Served}
	for i, w := range want {
		if results[i].Outcome != w {
			t.Fatalf("job %d: %s, want %s", i, results[i].Outcome, w)
		}
	}
	d := results[3].Record
	if d.StartCycle != 120 || d.WaitCycles != 0 || d.FinishCycle != 170 {
		t.Fatalf("d scheduled %+v", d)
	}
	if sum.QueueDepth != 0 || sum.Servers != 2 {
		t.Fatalf("discipline echoed wrong: %+v", sum)
	}
}

func TestFailedJobsHoldNoServer(t *testing.T) {
	s := stubScheduler(Config{Servers: 1, QueueDepth: 4, Workers: 1})
	bad := stubJob("bad", 0, 100)
	bad.Chain.SNRdB = -1
	jobs := []Job{bad, stubJob("ok", 0, 100)}
	results, sum := s.Serve(jobs)
	if results[0].Outcome != Failed || results[0].Error == "" {
		t.Fatalf("bad job: %+v", results[0])
	}
	// The failed job never occupied the server: ok starts at its arrival.
	if results[1].Outcome != Served || results[1].Record.WaitCycles != 0 {
		t.Fatalf("ok job: %+v", results[1])
	}
	if sum.Failed != 1 || sum.Served != 1 {
		t.Fatalf("summary %+v", sum)
	}
}

func TestArrivalOrderSorts(t *testing.T) {
	s := stubScheduler(Config{Servers: 1, Workers: 1})
	jobs := []Job{
		stubJob("late", 500, 10),
		stubJob("early", 0, 10),
	}
	results, _ := s.Serve(jobs)
	if results[0].Name != "early" || results[1].Name != "late" {
		t.Fatalf("results not in arrival order: %s, %s", results[0].Name, results[1].Name)
	}
	if results[0].Job != 0 || results[1].Job != 1 {
		t.Fatalf("job ids not arrival-ordered: %d, %d", results[0].Job, results[1].Job)
	}
}

// TestDeterministicReplay is the end-to-end determinism contract: the
// same seeded trace served with different host worker counts produces
// byte-identical JSONL, real simulator measurements included.
func TestDeterministicReplay(t *testing.T) {
	jobs := PoissonTrace(tinyChain(), 6, 10, 42)
	var first string
	var lastSum report.ServiceSummary
	for _, workers := range []int{1, 4} {
		s := &Scheduler{Cfg: Config{Servers: 2, QueueDepth: 2, Workers: workers, Seed: 42}}
		var buf bytes.Buffer
		sum, err := s.WriteJSONL(&buf, jobs)
		if err != nil {
			t.Fatal(err)
		}
		lastSum = sum
		if first == "" {
			first = buf.String()
			continue
		}
		if buf.String() != first {
			t.Fatalf("JSONL differs between worker counts:\n--- workers=1\n%s--- workers=%d\n%s", first, workers, buf.String())
		}
	}
	if lastSum.Pool == nil || lastSum.Pool.Builds == 0 || lastSum.Pool.Gets == 0 {
		t.Fatalf("returned summary must carry pool occupancy: %+v", lastSum.Pool)
	}
	// Each served line must parse as a SlotRecord; the last line is the
	// summary.
	lines := strings.Split(strings.TrimSpace(first), "\n")
	if len(lines) < 2 {
		t.Fatalf("expected served lines plus summary, got %d lines", len(lines))
	}
	for _, line := range lines[:len(lines)-1] {
		var sr report.SlotRecord
		if err := json.Unmarshal([]byte(line), &sr); err != nil {
			t.Fatalf("served line is not a SlotRecord: %v\n%s", err, line)
		}
		if sr.Kind != "chain" || sr.TotalCycles <= 0 {
			t.Fatalf("implausible slot record: %s", line)
		}
	}
	var sum report.ServiceSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Kind != "summary" || sum.Jobs != 6 || sum.Served+sum.Dropped+sum.Failed != 6 {
		t.Fatalf("summary line: %+v", sum)
	}
	if sum.Served > 0 && sum.ServedGbps <= 0 {
		t.Fatalf("served throughput missing: %+v", sum)
	}
	if sum.Pool != nil {
		t.Fatal("wire summary must omit host-side pool stats")
	}
}

func TestTraceGeneratorsDeterministicAndSeeded(t *testing.T) {
	base := tinyChain()
	a := PoissonTrace(base, 20, 5, 7)
	b := PoissonTrace(base, 20, 5, 7)
	for i := range a {
		// ChainConfig carries layout core sets, so jobs compare by deep
		// equality rather than ==.
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("Poisson trace not reproducible at %d", i)
		}
	}
	c := PoissonTrace(base, 20, 5, 8)
	same := true
	for i := range a {
		if a[i].Arrival != c[i].Arrival {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrivals")
	}
	// Arrivals strictly ordered, per-job payload seeds distinct.
	seeds := map[uint64]bool{}
	for i, j := range a {
		if i > 0 && j.Arrival < a[i-1].Arrival {
			t.Fatalf("arrivals not monotone at %d", i)
		}
		if j.Chain.Seed == 0 || seeds[j.Chain.Seed] {
			t.Fatalf("payload seed not distinct at %d: %d", i, j.Chain.Seed)
		}
		seeds[j.Chain.Seed] = true
	}

	bursty := BurstyTrace(base, 12, 4, 10, 2, 7)
	if len(bursty) != 12 {
		t.Fatalf("bursty trace length %d", len(bursty))
	}
	// Gaps between bursts: job 4 starts a new burst after an off period,
	// so the average spacing across the burst boundary exceeds the
	// intra-burst mean (statistically certain at mean gap 2 ms vs
	// 0.1 ms inter-arrival).
	boundary := bursty[4].Arrival - bursty[3].Arrival
	intra := bursty[1].Arrival - bursty[0].Arrival
	if boundary <= intra {
		t.Logf("note: burst boundary %d <= intra %d (possible but unlikely)", boundary, intra)
	}

	mix := MixedTrace(TableIMix(nil), 30, 10, 7)
	if len(mix) != 30 {
		t.Fatalf("mixed trace length %d", len(mix))
	}
	kinds := map[string]int{}
	for _, j := range mix {
		name := j.Name[:strings.LastIndex(j.Name, "-")]
		kinds[name]++
	}
	if len(kinds) < 2 {
		t.Fatalf("mix drew only %v", kinds)
	}
	if MixedTrace(nil, 5, 1, 1) != nil {
		t.Fatal("empty mix must return nil")
	}
}

// TestTraceGeneratorsBoundArrivals feeds the trace sources hostile
// rates, gaps and spacings: every arrival they emit must lie in
// [0, maxArrival], the range Spec.Job enforces on replayed traces, and
// arrivals must never decrease.
func TestTraceGeneratorsBoundArrivals(t *testing.T) {
	base := tinyChain()
	nan := math.NaN()
	type trace struct {
		name string
		jobs []Job
	}
	var traces []trace
	for _, rate := range []float64{nan, math.Inf(1), 1e-300} {
		traces = append(traces,
			trace{fmt.Sprintf("poisson at rate %g", rate), PoissonTrace(base, 50, rate, 7)},
			trace{fmt.Sprintf("bursty at rate %g", rate), BurstyTrace(base, 50, 4, rate, 2, 7)},
			trace{fmt.Sprintf("mixed at rate %g", rate), MixedTrace(TableIMix(nil), 50, rate, 7)})
	}
	traces = append(traces, trace{"bursty with gap NaN", BurstyTrace(base, 50, 4, 5, nan, 7)})
	sweep, _ := FromScenarios(campaign.SNRSweep(base, 10, 20, 2), maxArrival/2, 7)
	traces = append(traces, trace{"campaign at spacing 1<<61", sweep})
	for _, tr := range traces {
		for i, j := range tr.jobs {
			if j.Arrival < 0 || j.Arrival > maxArrival {
				t.Errorf("%s: job %d arrives at %d, outside [0, %d]", tr.name, i, j.Arrival, int64(maxArrival))
				break
			}
			if i > 0 && j.Arrival < tr.jobs[i-1].Arrival {
				t.Errorf("%s: job %d arrives at %d, before job %d at %d", tr.name, i, j.Arrival, i-1, tr.jobs[i-1].Arrival)
				break
			}
		}
	}
	if len(sweep) != 3 {
		t.Errorf("campaign at spacing 1<<61: %d jobs, want the 3 that fit", len(sweep))
	}
	// NaN rates and gaps take the defaults of non-positive ones.
	if !reflect.DeepEqual(PoissonTrace(base, 20, nan, 7), PoissonTrace(base, 20, 0, 7)) {
		t.Error("NaN rate does not default like a non-positive one")
	}
	if !reflect.DeepEqual(BurstyTrace(base, 20, 4, 5, nan, 7), BurstyTrace(base, 20, 4, 5, -1, 7)) {
		t.Error("NaN gap does not default like a negative one")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	base := tinyChain()
	jobs := PoissonTrace(base, 5, 10, 3)
	// Include a 0 dB job: the round trip must preserve it even though
	// the server default is non-zero.
	jobs[2].Chain.SNRdB = 0
	var buf bytes.Buffer
	if err := WriteSpecs(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJobs(&buf, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(jobs) {
		t.Fatalf("round trip length %d, want %d", len(back), len(jobs))
	}
	for i := range jobs {
		got, want := back[i], jobs[i]
		if got.Name != want.Name || got.Arrival != want.Arrival {
			t.Fatalf("job %d identity: got %+v want %+v", i, got, want)
		}
		if got.Chain.NSC != want.Chain.NSC || got.Chain.Scheme != want.Chain.Scheme ||
			got.Chain.Seed != want.Chain.Seed || got.Chain.NL != want.Chain.NL ||
			got.Chain.SNRdB != want.Chain.SNRdB {
			t.Fatalf("job %d config: got %+v want %+v", i, got.Chain, want.Chain)
		}
		if got.Chain.Cluster.Name != want.Chain.Cluster.Name {
			t.Fatalf("job %d cluster: got %s want %s", i, got.Chain.Cluster.Name, want.Chain.Cluster.Name)
		}
	}

	// Non-stock geometries have no wire form: WriteSpecs must refuse
	// rather than let the trace replay on different geometry.
	custom := *arch.MemPool()
	custom.Groups = 2
	bad := jobs[0]
	bad.Chain.Cluster = &custom
	if err := WriteSpecs(io.Discard, []Job{bad}); err == nil {
		t.Fatal("WriteSpecs must reject non-stock cluster geometries")
	}
}

func TestReadJobsDefaultsAndComments(t *testing.T) {
	stream := `
# a comment
{"arrival_cycle": 0}
{"arrival_cycle": 1000, "scheme": "64qam", "ues": 2, "snr_db": 12}
{"arrival_cycle": 2000, "snr_db": 0}
`
	jobs, err := ReadJobs(strings.NewReader(stream), tinyChain())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("parsed %d jobs, want 3", len(jobs))
	}
	if jobs[0].Chain.NSC != 64 || jobs[0].Chain.Scheme != waveform.QPSK {
		t.Fatalf("defaults not inherited: %+v", jobs[0].Chain)
	}
	if jobs[1].Chain.Scheme != waveform.QAM64 || jobs[1].Chain.NL != 2 || jobs[1].Chain.SNRdB != 12 {
		t.Fatalf("overrides not applied: %+v", jobs[1].Chain)
	}
	// An omitted snr_db inherits the default (20 dB); an explicit 0 must
	// mean 0 dB, not "inherit".
	if jobs[0].Chain.SNRdB != 20 {
		t.Fatalf("omitted snr_db should inherit 20 dB: %+v", jobs[0].Chain)
	}
	if jobs[2].Chain.SNRdB != 0 {
		t.Fatalf("explicit snr_db 0 must stay 0 dB: %+v", jobs[2].Chain)
	}
	if _, err := ReadJobs(strings.NewReader(`{"scheme":"8psk"}`), tinyChain()); err == nil {
		t.Fatal("bad scheme must fail")
	}
}

func TestFromScenarios(t *testing.T) {
	base := tinyChain()
	sweep := campaign.SNRSweep(base, 10, 14, 2) // 3 chain scenarios
	uc := tinyUseCase()
	// Insert the use-case scenario in the MIDDLE: the chain scenarios
	// after it must keep their original family-index seeds despite the
	// skip, so a served campaign reproduces the campaign run's payloads.
	scenarios := []campaign.Scenario{sweep[0], {Name: "uc", UseCase: &uc}, sweep[1], sweep[2]}
	jobs, skipped := FromScenarios(scenarios, 1000, 7)
	if len(jobs) != 3 || skipped != 1 {
		t.Fatalf("got %d jobs, %d skipped", len(jobs), skipped)
	}
	wantNames := []string{sweep[0].Name, sweep[1].Name, sweep[2].Name}
	wantSeeds := []uint64{campaign.DeriveSeed(7, 0), campaign.DeriveSeed(7, 2), campaign.DeriveSeed(7, 3)}
	for i, j := range jobs {
		if j.Arrival != int64(i)*1000 {
			t.Fatalf("job %d arrival %d", i, j.Arrival)
		}
		if j.Name != wantNames[i] {
			t.Fatalf("job %d lost scenario name: %q", i, j.Name)
		}
		if j.Chain.Seed != wantSeeds[i] {
			t.Fatalf("job %d seed %d, want family-index seed %d", i, j.Chain.Seed, wantSeeds[i])
		}
	}
}

// TestFromScenariosReproducesCampaignPayloads is the cross-layer
// determinism contract: a chain scenario family run as a campaign and
// served as a slot-traffic stream must report identical link metrics
// per scenario, even when the family contains skipped use-case entries.
func TestFromScenariosReproducesCampaignPayloads(t *testing.T) {
	base := tinyChain()
	sweep := campaign.SNRSweep(base, 10, 12, 2) // 2 chain scenarios
	uc := tinyUseCase()
	scenarios := []campaign.Scenario{sweep[0], {Name: "uc", UseCase: &uc}, sweep[1]}

	runner := &campaign.Runner{Workers: 1, Seed: 7}
	var campaignChain []campaign.Result
	for _, r := range runner.Run(scenarios) {
		if r.Kind == "chain" {
			campaignChain = append(campaignChain, r)
		}
	}

	jobs, _ := FromScenarios(scenarios, 0, 7)
	s := &Scheduler{Cfg: Config{Servers: 1, QueueDepth: 16, Workers: 1, Seed: 99}}
	results, _ := s.Serve(jobs)
	for i, r := range results {
		if r.Outcome != Served {
			t.Fatalf("job %d not served: %+v", i, r)
		}
		if r.Record.BER != campaignChain[i].BER || r.Record.EVMdB != campaignChain[i].EVMdB {
			t.Fatalf("job %d (%s) link metrics differ from campaign: BER %v vs %v, EVM %v vs %v",
				i, r.Name, r.Record.BER, campaignChain[i].BER, r.Record.EVMdB, campaignChain[i].EVMdB)
		}
	}
}

// TestMobileTraceAttachesLinkState: generated traffic over an active
// channel spec gets per-UE fading identities (round-robin over the UE
// population, so slots i and i+P share one evolving channel) and a
// channel time equal to the arrival instant — while pinned specs and
// legacy bases stay untouched.
func TestMobileTraceAttachesLinkState(t *testing.T) {
	base := Mobile(tinyChain(), channel.TDLB, 30, 0)
	jobs := PoissonTrace(base, 2*DefaultUEPopulation+3, 2, 5)
	for i, j := range jobs {
		ch := j.Chain.Channel
		if ch.Seed == 0 {
			t.Fatalf("job %d: no fading seed stamped", i)
		}
		if want := float64(j.Arrival) / CyclesPerMs; ch.TimeMs != want {
			t.Errorf("job %d: channel time %g ms, want arrival %g", i, ch.TimeMs, want)
		}
		if i >= DefaultUEPopulation {
			prev := jobs[i-DefaultUEPopulation].Chain.Channel
			if ch.Seed != prev.Seed {
				t.Errorf("jobs %d and %d are one UE but have fading seeds %d / %d",
					i-DefaultUEPopulation, i, prev.Seed, ch.Seed)
			}
			if ch.TimeMs <= prev.TimeMs {
				t.Errorf("job %d: channel time %g not after %g (no evolution)", i, ch.TimeMs, prev.TimeMs)
			}
		}
		if i > 0 && i < DefaultUEPopulation && ch.Seed == jobs[0].Chain.Channel.Seed {
			t.Errorf("jobs 0 and %d are distinct UEs but share a fading seed", i)
		}
	}
	// Legacy bases stay legacy: no stamping.
	for _, j := range PoissonTrace(tinyChain(), 4, 2, 5) {
		if !j.Chain.Channel.Legacy() {
			t.Fatalf("legacy base got channel stamping: %+v", j.Chain.Channel)
		}
	}
	// Pinned fading seeds survive generation.
	pinned := base
	pinned.Channel.Seed = 77
	for _, j := range BurstyTrace(pinned, 6, 2, 4, 1, 5) {
		if j.Chain.Channel.Seed != 77 {
			t.Fatalf("pinned fading seed overwritten: %d", j.Chain.Channel.Seed)
		}
	}
}

// TestMobileServiceDeterministicAcrossWorkers is the acceptance
// criterion of the channel subsystem at the service level: a mobile
// trace (TDL profile + Doppler) served with 1 and 8 measurement workers
// must produce byte-identical JSONL, and served records must carry the
// channel coordinates.
func TestMobileServiceDeterministicAcrossWorkers(t *testing.T) {
	base := Mobile(tinyChain(), channel.TDLB, 30, 0)
	jobs := PoissonTrace(base, 24, 4, 9)
	serve := func(workers int) string {
		var buf bytes.Buffer
		s := &Scheduler{Cfg: Config{Servers: 2, Workers: workers, Seed: 9}}
		if _, err := s.WriteJSONL(&buf, jobs); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one := serve(1)
	if eight := serve(8); eight != one {
		t.Fatal("mobile-trace JSONL differs between 1 and 8 workers")
	}
	var rec report.JobRecord
	if err := json.Unmarshal([]byte(strings.SplitN(one, "\n", 2)[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Channel != "tdl-b" || rec.DopplerHz != 30 || rec.ChannelSeed == 0 {
		t.Errorf("served record channel coordinates %q/%g/%d", rec.Channel, rec.DopplerHz, rec.ChannelSeed)
	}
}

// TestSpecRoundTripChannel: stamped mobile jobs survive the JSONL wire
// format, so -trace-out traces replay the exact fading realizations.
func TestSpecRoundTripChannel(t *testing.T) {
	base := Mobile(tinyChain(), channel.TDLC, 97, 1.5)
	jobs := PoissonTrace(base, 5, 2, 11)
	var buf bytes.Buffer
	if err := WriteSpecs(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	// Replay against a default base with no channel spec: every field
	// must come off the wire.
	back, err := ReadJobs(&buf, tinyChain())
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(jobs) {
		t.Fatalf("%d jobs back, want %d", len(back), len(jobs))
	}
	for i := range jobs {
		if back[i].Chain.Channel != jobs[i].Chain.Channel {
			t.Errorf("job %d channel spec %+v, want %+v", i, back[i].Chain.Channel, jobs[i].Chain.Channel)
		}
	}
	// Unknown profiles on the wire are rejected with a line number.
	if _, err := ReadJobs(strings.NewReader(`{"arrival_cycle":0,"channel":"tdl-z"}`), tinyChain()); err == nil {
		t.Error("unknown wire profile accepted")
	}
}

// TestStampMobileOnScenarioTrace: campaign adaptations served as mobile
// traffic get the same per-UE stamping as generated traces (the puschd
// -gen campaign -channel path), and doppler therefore actually evolves
// the channel time across a UE's slots.
func TestStampMobileOnScenarioTrace(t *testing.T) {
	base := Mobile(tinyChain(), channel.TDLA, 30, 0)
	scens := campaign.SNRSweep(base, 8, 26, 1)
	jobs, _ := FromScenarios(scens, 500_000, 3)
	jobs = StampMobile(jobs, 3)
	for i, j := range jobs {
		ch := j.Chain.Channel
		if ch.Seed == 0 {
			t.Fatalf("job %d: no fading seed", i)
		}
		if i > 0 && ch.TimeMs <= jobs[i-1].Chain.Channel.TimeMs {
			t.Fatalf("job %d: channel time %g not advancing", i, ch.TimeMs)
		}
	}
	if jobs[0].Chain.Channel.Seed != jobs[DefaultUEPopulation].Chain.Channel.Seed {
		t.Error("scenario jobs one UE-population apart do not share a fading identity")
	}
	// Legacy scenario traces pass through untouched.
	plain, _ := FromScenarios(campaign.SNRSweep(tinyChain(), 8, 10, 1), 0, 3)
	for _, j := range StampMobile(plain, 3) {
		if !j.Chain.Channel.Legacy() {
			t.Fatal("legacy scenario trace got channel stamping")
		}
	}
}

// TestReadJobsArrivalBounds: arrival cycles outside [0, 1<<62] are
// rejected with the offending line number; the bounds themselves pass.
func TestReadJobsArrivalBounds(t *testing.T) {
	for _, tc := range []struct {
		arrival string
		ok      bool
	}{
		{"0", true},
		{"4611686018427387904", true}, // 1<<62
		{"4611686018427387905", false},
		{"9223372036854775000", false}, // overflowed finish_cycle before the bound
		{"-1", false},
		{"-9223372036854775808", false},
	} {
		stream := "{\"arrival_cycle\": 0}\n{\"arrival_cycle\": " + tc.arrival + "}\n"
		jobs, err := ReadJobs(strings.NewReader(stream), tinyChain())
		if tc.ok {
			if err != nil || len(jobs) != 2 {
				t.Errorf("arrival %s: %d jobs, err %v; want accepted", tc.arrival, len(jobs), err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "arrival_cycle") {
			t.Errorf("arrival %s: err %v; want a line-2 arrival_cycle error", tc.arrival, err)
		}
	}
}

// TestServersBoundedByTrace: a server count far beyond the trace serves
// without allocating it, exactly as with one server per job, and the
// summary still echoes the configured count.
func TestServersBoundedByTrace(t *testing.T) {
	jobs := []Job{stubJob("a", 0, 100), stubJob("b", 0, 100), stubJob("c", 10, 50), stubJob("d", 500, 10)}
	huge, hugeSum := stubScheduler(Config{Servers: 1 << 50, Workers: 1}).Serve(jobs)
	exact, _ := stubScheduler(Config{Servers: len(jobs), Workers: 1}).Serve(jobs)
	if !reflect.DeepEqual(huge, exact) {
		t.Fatalf("results with 1<<50 servers %+v, with %d servers %+v", huge, len(jobs), exact)
	}
	if hugeSum.Servers != 1<<50 || hugeSum.Served != len(jobs) {
		t.Fatalf("summary %+v", hugeSum)
	}
}
