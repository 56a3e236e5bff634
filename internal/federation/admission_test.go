package federation

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"csfltr/internal/telemetry"
)

// admissionLinkRTT slows every owner call relayed to party B, so the
// searches of the closing phase overlap the replica kill. No phase's
// outcome rests on it: a search that must hold its slot is held on the
// test's gate.
const admissionLinkRTT = 25 * time.Millisecond

// admissionReply is what a client saw for one POST /v1/search.
type admissionReply struct {
	status     int
	retryAfter string
	body       string
	err        error
}

// TestGatewayAdmission drives POST /v1/search through the gateway of a
// 2 x 2 sharded federation with one execution slot and one queue
// position. Every admitted search first waits at a gate the test opens,
// so a request meant to find the slot taken finds it taken however slow
// the machine is. Each phase serves from its own listener: closing it
// waits for every handler to return, so the closing checks — occupancy
// gauges back at zero, querier epsilon spend equal to exactly the
// searches that answered 200 — see a quiescent gateway. A shed request
// never spends: admission refuses it before the search is called.
func TestGatewayAdmission(t *testing.T) {
	p := testParams()
	p.Epsilon = 0.5 // a search that runs is a search that spends
	p.Parallelism = 1
	p.Shards, p.Replicas = 2, 2
	fed := shardTestFedParams(t, p)
	fed.Server.SetPartyLink("B", admissionLinkRTT)
	// gate lets one admitted search run per token sent, and every one
	// once it is closed.
	gate := make(chan struct{})
	fed.Server.setSearcher(func(from string, terms []uint64, k int) (*SearchResult, string, error) {
		<-gate
		return fed.SearchTraced(from, terms, k)
	})
	pass := func() { gate <- struct{}{} }

	reg := fed.Server.Metrics()
	inFlight := reg.Gauge(MetricAdmissionInFlight, "")
	queueDepth := reg.Gauge(MetricAdmissionQueueDepth, "")
	shed := func(reason string) int64 {
		return reg.Counter(MetricAdmissionShed, "", telemetry.L("reason", reason)).Value()
	}
	querier, _ := fed.Party("A")
	spent := func() float64 {
		return querier.Accountant().Spent("B") + querier.Accountant().Spent("C")
	}

	post := func(ctx context.Context, url string, seq int) admissionReply {
		// Two distinct terms per request: every search costs the same epsilon.
		body := fmt.Sprintf(`{"from":"A","terms":[%d,%d],"k":5}`, seq%12, 12+seq%13)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/search", strings.NewReader(body))
		if err != nil {
			return admissionReply{err: err}
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return admissionReply{err: err}
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return admissionReply{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), body: string(b), err: err}
	}
	goPost := func(ctx context.Context, url string, seq int) <-chan admissionReply {
		ch := make(chan admissionReply, 1)
		go func() { ch <- post(ctx, url, seq) }()
		return ch
	}
	waitFor := func(t *testing.T, name string, value func() float64, want float64) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for value() < want {
			if time.Now().After(deadline) {
				t.Fatalf("%s = %v, never reached %v", name, value(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitGauge := func(t *testing.T, g *telemetry.Gauge, name string, want float64) {
		t.Helper()
		waitFor(t, name, g.Value, want)
	}
	waitShed := func(t *testing.T, reason string, want int64) {
		t.Helper()
		waitFor(t, "shed{reason="+reason+"}", func() float64 { return float64(shed(reason)) }, float64(want))
	}
	wantOK := func(t *testing.T, what string, r admissionReply) {
		t.Helper()
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("%s: status %d err %v body %s, want 200", what, r.status, r.err, r.body)
		}
	}
	wantShed := func(t *testing.T, what string, r admissionReply, reason string) {
		t.Helper()
		if r.err != nil || r.status != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d err %v body %s, want 429", what, r.status, r.err, r.body)
		}
		if r.retryAfter != "1" {
			t.Fatalf("%s: Retry-After %q, want \"1\"", what, r.retryAfter)
		}
		if !strings.Contains(r.body, "overloaded: "+reason) {
			t.Fatalf("%s: body %s does not name reason %q", what, r.body, reason)
		}
	}

	var okTotal int
	var perSearch float64
	seq := 0
	next := func() int { seq++; return seq }
	bg := context.Background()
	// wait is a queue deadline no phase is meant to reach.
	const wait = 30 * time.Second
	phase := func(name string, cfg AdmissionConfig, run func(t *testing.T, url string)) {
		t.Run(name, func(t *testing.T) {
			fed.Server.SetAdmission(cfg)
			ts := httptest.NewServer(HTTPHandler(fed.Server))
			defer ts.Close()
			run(t, ts.URL)
			ts.Close()
			if in, q := inFlight.Value(), queueDepth.Value(); in != 0 || q != 0 {
				t.Fatalf("gateway idle but in_flight=%v queue_depth=%v", in, q)
			}
			if perSearch == 0 {
				perSearch = spent()
			}
			if got, want := spent(), float64(okTotal)*perSearch; got != want {
				t.Fatalf("querier spent epsilon %v, want %v (%d answered searches x %v)", got, want, okTotal, perSearch)
			}
		})
	}

	phase("uncontended", AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: wait}, func(t *testing.T, url string) {
		lone := goPost(bg, url, next())
		pass()
		wantOK(t, "lone request", <-lone)
		okTotal++
		if spent() == 0 {
			t.Fatal("degenerate test: an answered search spent no epsilon")
		}
	})

	phase("queue_full", AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: wait}, func(t *testing.T, url string) {
		running := goPost(bg, url, next())
		waitGauge(t, inFlight, "in_flight", 1)
		queued := goPost(bg, url, next())
		waitGauge(t, queueDepth, "queue_depth", 1)
		wantShed(t, "arrival beyond the queue", post(bg, url, next()), shedQueueFull)
		pass()
		wantOK(t, "running request", <-running)
		pass()
		wantOK(t, "queued request", <-queued)
		okTotal += 2
		if got := shed(shedQueueFull); got != 1 {
			t.Fatalf("shed{reason=queue_full} = %d, want 1", got)
		}
	})

	phase("deadline", AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: admissionLinkRTT / 4}, func(t *testing.T, url string) {
		running := goPost(bg, url, next())
		waitGauge(t, inFlight, "in_flight", 1)
		wantShed(t, "request queued past the deadline", post(bg, url, next()), shedDeadline)
		pass()
		wantOK(t, "running request", <-running)
		okTotal++
		if got := shed(shedDeadline); got != 1 {
			t.Fatalf("shed{reason=deadline} = %d, want 1", got)
		}
	})

	// A client that disconnects while queued must give its position back
	// without ever searching: the closing spend check of this phase is
	// what fails if the abandoned request still claims a slot later. The
	// running search is let through only once the gateway has seen the
	// disconnect: a slot freed before that may go to the abandoned
	// request, which would then search, and spend, for nobody.
	phase("canceled", AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: wait}, func(t *testing.T, url string) {
		running := goPost(bg, url, next())
		waitGauge(t, inFlight, "in_flight", 1)
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		abandoned := goPost(ctx, url, next())
		waitGauge(t, queueDepth, "queue_depth", 1)
		cancel()
		if r := <-abandoned; !errors.Is(r.err, context.Canceled) {
			t.Fatalf("abandoned request: status %d err %v, want context.Canceled", r.status, r.err)
		}
		waitShed(t, shedCanceled, 1)
		pass()
		wantOK(t, "running request", <-running)
		okTotal++
	})
	if got := shed(shedCanceled); got != 1 {
		t.Fatalf("shed{reason=canceled} = %d, want 1", got)
	}

	// Three closed-loop clients against one slot: outcomes partition into
	// answered and shed, and losing a replica mid-run fails nobody. The
	// first search admitted is held until a request has been shed; then
	// the gate opens for good. No queued request waits out a deadline,
	// so every request the queue turns away leaves two admitted ones that
	// answer after it, and the kill, at the first answer, is followed by
	// more answers.
	phase("replica_kill", AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: wait}, func(t *testing.T, url string) {
		const clients, perClient = 3, 4
		turnedAway := shed(shedQueueFull)
		replies := make(chan admissionReply, clients*perClient)
		for c := 0; c < clients; c++ {
			first := seq + 1
			seq += perClient
			go func() {
				for j := 0; j < perClient; j++ {
					replies <- post(bg, url, first+j)
				}
			}()
		}
		waitShed(t, shedQueueFull, turnedAway+1)
		close(gate)
		b, _ := fed.Party("B")
		var ok, okAfterKill, shedSeen int
		killed := false
		for i := 0; i < clients*perClient; i++ {
			switch r := <-replies; {
			case r.err == nil && r.status == http.StatusOK:
				ok++
				if killed {
					okAfterKill++
				} else {
					b.Group(FieldBody).KillReplica(0, 0)
					killed = true
				}
			default:
				reason := shedDeadline
				if strings.Contains(r.body, shedQueueFull) {
					reason = shedQueueFull
				}
				wantShed(t, "shed request", r, reason)
				shedSeen++
			}
		}
		if ok+shedSeen != clients*perClient || okAfterKill == 0 || shedSeen == 0 {
			t.Fatalf("ok=%d (after the kill %d) shed=%d of %d sent", ok, okAfterKill, shedSeen, clients*perClient)
		}
		okTotal += ok
	})
}
