package main

import (
	"testing"

	"repro/internal/chantransport"
	"repro/internal/faultnet"
	"repro/internal/model"
	"repro/internal/simnet"
	"repro/internal/tcptransport"
	"repro/internal/transport"
)

// checkForwarding wraps ep and asserts the wrapper implements exactly the
// optional interfaces ep does, and that calls through it are counted.
func checkForwarding(t *testing.T, name string, ep transport.Endpoint, want capability) {
	t.Helper()
	if got := capsOf(ep); got != want {
		t.Fatalf("%s: endpoint capabilities %v, want %v", name, got, want)
	}
	rec := newRecorder(ep.Size(), true)
	wrapped, _, err := wrapEndpoint(ep, rec)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got := capsOf(wrapped); got != want {
		t.Errorf("%s: wrapper capabilities %v, want %v", name, got, want)
	}
	if transport.EpochOf(wrapped) != transport.EpochOf(ep) || transport.CarriesData(wrapped) != transport.CarriesData(ep) {
		t.Errorf("%s: forwarded epoch or data mode differs", name)
	}
}

func TestWrapperForwardsCapabilities(t *testing.T) {
	cw, err := chantransport.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	cep, err := cw.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	checkForwarding(t, "chan", cep, capsChan)
	checkForwarding(t, "faultnet(chan)", faultnet.New(faultnet.Config{}).Wrap(cep), capsFault)

	teps, err := tcptransport.NewLocalWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range teps {
			ep.Close()
		}
	}()
	checkForwarding(t, "tcp", teps[0], capsTCP)

	mach := model.ParagonLike()
	_, err = simnet.Run(simnet.Config{Rows: 1, Cols: 2, Machine: mach}, func(ep *simnet.Endpoint) error {
		if ep.Rank() != 0 {
			return nil
		}
		checkForwarding(t, "simnet", ep, capsSim)
		wrapped, _, err := wrapEndpoint(ep, newRecorder(2, false))
		if err != nil {
			return err
		}
		if got := wrapped.(machineHint).Machine(); got != mach {
			t.Errorf("simnet: forwarded machine %+v, want %+v", got, mach)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// clockOnly has a capability set no wrapper type covers.
type clockOnly struct{ transport.Endpoint }

func (clockOnly) Now() float64   { return 0 }
func (clockOnly) Elapse(float64) {}

func TestWrapperRefusesUnknownCapabilitySet(t *testing.T) {
	cw, err := chantransport.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := cw.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := wrapEndpoint(clockOnly{ep}, newRecorder(1, true)); err == nil {
		t.Fatal("wrapper accepted an endpoint whose capabilities it cannot forward")
	}
}

func TestWrapperCountsAndSpans(t *testing.T) {
	cw, err := chantransport.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(2, true)
	eps := make([]transport.Endpoint, 2)
	for r := range eps {
		ep, err := cw.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		if eps[r], _, err = wrapEndpoint(ep, rec); err != nil {
			t.Fatal(err)
		}
	}
	tag := transport.Compose(1, 0, 0)
	err = spmd(2, func(r int) error {
		buf := make([]byte, 100)
		if r == 0 {
			return eps[0].Send(1, tag, buf)
		}
		_, err := eps[1].Recv(0, tag, buf)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	counts, bytes := rec.counts()
	if counts[opSend] != 1 || counts[opRecv] != 1 || bytes != 200 {
		t.Fatalf("counts %v bytes %d, want one send and one receive of 100 bytes", counts, bytes)
	}
	if len(rec.ranks[0].ops) != 1 || len(rec.ranks[1].ops) != 1 {
		t.Fatalf("spans %d/%d, want 1/1", len(rec.ranks[0].ops), len(rec.ranks[1].ops))
	}
}

// TestTracedRunMatchesUntraced: for the same seed, the traced program makes
// the same plan-cache, planner and transport calls as the untraced one.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, name := range workloadNames {
		steps := 8
		if name == "large-tcp" {
			steps = 2
		}
		msg, err := equivalent(name, 3, steps)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		t.Log(msg)
	}
}

func TestRecoveryCycleSafety(t *testing.T) {
	for k := 0; k < 4; k++ {
		cy, err := runCycle(5, k, modeCount)
		if err != nil {
			t.Fatal(err)
		}
		for r, l := range cy.logs {
			if l.failed != 0 {
				t.Errorf("cycle %d rank %d: %d failed calls: %v", k, r, l.failed, l.firstErr)
			}
		}
		if cy.injected != 1 {
			t.Errorf("cycle %d: %d faults injected, want 1", k, cy.injected)
		}
	}
}
