package federation

import (
	"errors"
	"net/http/httptest"
	"testing"

	"csfltr/internal/core"
	"csfltr/internal/telemetry"
	"csfltr/internal/textkit"
)

// partyHost serves p alone behind its own HTTP listener, the way
// `csfltr party` does, and returns the listener's base URL.
func partyHost(t *testing.T, p *Party) string {
	t.Helper()
	local := NewServer()
	if err := local.Register(p); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(HTTPHandler(local))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestPartyHostedTopology runs the fully distributed deployment: party B
// lives in its own "process" behind its own HTTP listener; the
// coordinator registers it remotely and relays a local party A's
// queries to it.
func TestPartyHostedTopology(t *testing.T) {
	params := testParams()

	// Party B: its own host.
	b, err := NewParty("B", PartyConfig{Params: params, Seed: 42, RNGSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.IngestDocument(textkit.NewDocument(0, -1,
		[]textkit.TermID{500}, []textkit.TermID{7, 7, 7, 8})); err != nil {
		t.Fatal(err)
	}
	if err := b.IngestDocument(textkit.NewDocument(1, -1,
		[]textkit.TermID{501}, []textkit.TermID{7, 9})); err != nil {
		t.Fatal(err)
	}
	host := partyHost(t, b)

	// Coordinator: local party A + remote registration of B.
	coord := NewServer()
	a, err := NewParty("A", PartyConfig{Params: params, Seed: 42, RNGSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := coord.RegisterHTTPRemote("B", host, nil); err != nil {
		t.Fatal(err)
	}

	names := coord.PartyNames()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Fatalf("roster = %v", names)
	}

	// Query through the coordinator: A -> coordinator -> B's host.
	owner, err := coord.OwnerFor("B", FieldBody)
	if err != nil {
		t.Fatal(err)
	}
	got, cost, err := core.RTKReverseTopK(a.Querier(), owner, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].DocID != 0 {
		t.Fatalf("remote reverse top-K = %v", got)
	}
	if cost.Messages != 1 {
		t.Fatalf("messages = %d", cost.Messages)
	}
	// Traffic is accounted at the coordinator.
	if tr := coord.Traffic(); tr.Messages < 2 || tr.Bytes == 0 {
		t.Fatalf("coordinator traffic = %+v", tr)
	}
	// TF queries and metadata also traverse the relay.
	length, unique, err := owner.DocMeta(0)
	if err != nil || length != 4 || unique != 2 {
		t.Fatalf("remote DocMeta = %d,%d,%v", length, unique, err)
	}
	query, priv := a.Querier().BuildQuery(7)
	resp, err := owner.AnswerTF(0, query)
	if err != nil {
		t.Fatal(err)
	}
	est, err := a.Querier().Recover(priv, resp)
	if err != nil {
		t.Fatal(err)
	}
	if est != 3 {
		t.Fatalf("remote TF = %v, want 3", est)
	}
}

// TestRegisterRemoteDuplicate: a duplicate name is refused and the
// roster is left as it was.
func TestRegisterRemoteDuplicate(t *testing.T) {
	b, err := NewParty("B", PartyConfig{Params: testParams(), Seed: 42, RNGSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	host := partyHost(t, b)
	coord := NewServer()
	if err := coord.RegisterHTTPRemote("B", host, nil); err != nil {
		t.Fatal(err)
	}
	if err := coord.RegisterHTTPRemote("B", host, nil); err == nil {
		t.Fatal("duplicate remote registration should fail")
	}
	if names := coord.PartyNames(); len(names) != 1 || names[0] != "B" {
		t.Fatalf("roster after refused registration = %v", names)
	}
}

// TestUnregister removes a party from the roster.
func TestUnregister(t *testing.T) {
	coord := NewServer()
	a, err := NewParty("A", PartyConfig{Params: testParams(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Register(a); err != nil {
		t.Fatal(err)
	}
	coord.Unregister("A")
	if len(coord.PartyNames()) != 0 {
		t.Fatal("party still registered")
	}
	coord.Unregister("A") // no-op
	// Name is reusable after unregistration.
	if err := coord.Register(a); err != nil {
		t.Fatal(err)
	}
}

// relayedQueryMessages reads the query messages reg counts as relayed to
// party.
func relayedQueryMessages(reg *telemetry.Registry, party string) float64 {
	if m := reg.Snapshot().Metric(MetricRelayedMessages); m != nil {
		for _, s := range m.Series {
			if s.Labels["party"] == party && s.Labels["op"] == opQuery {
				return s.Value
			}
		}
	}
	return 0
}

// TestRelayCacheFollowsRegistry: the roster's relays are built when a
// party registers, and SetRegistry rebuilds them — so what a relay
// resolved afterwards carries is accounted in the new registry, and none
// of it in the old one.
func TestRelayCacheFollowsRegistry(t *testing.T) {
	fed := twoPartyFed(t, testParams())
	old := fed.Server.Metrics()
	if _, err := fed.CrossTF("A", "B", FieldBody, 0, 5); err != nil {
		t.Fatal(err)
	}
	before := relayedQueryMessages(old, "B")
	if before != 2 {
		t.Fatalf("a CrossTF relayed %v messages, want the query and its reply", before)
	}
	reg := telemetry.NewRegistry()
	fed.Server.SetRegistry(reg)
	if _, err := fed.CrossTF("A", "B", FieldBody, 0, 5); err != nil {
		t.Fatal(err)
	}
	owner, err := fed.Server.OwnerFor("B", FieldTitle)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := owner.DocMeta(0); err != nil {
		t.Fatal(err)
	}
	if got := relayedQueryMessages(reg, "B"); got != 3 {
		t.Fatalf("the new registry counts %v messages relayed to B, want 3", got)
	}
	if got := relayedQueryMessages(old, "B"); got != before {
		t.Fatalf("the old registry went on counting: %v messages, want %v", got, before)
	}
}

// TestRelayCacheAfterReRegister: Unregister drops a party's relays, and a
// new endpoint registered under the same name — here the party moved
// behind an HTTP host, with other documents — is the one its relay
// reaches.
func TestRelayCacheAfterReRegister(t *testing.T) {
	fed := twoPartyFed(t, testParams())
	if tf, err := fed.CrossTF("A", "B", FieldBody, 0, 5); err != nil || tf != 4 {
		t.Fatalf("setup: CrossTF = %v (%v), want 4", tf, err)
	}
	departed, _ := fed.Server.OwnerFor("B", FieldBody)
	fed.Server.Unregister("B")
	if _, err := fed.Server.OwnerFor("B", FieldBody); !errors.Is(err, ErrUnknownParty) {
		t.Fatalf("OwnerFor an unregistered party: %v, want ErrUnknownParty", err)
	}
	moved, err := NewParty("B", PartyConfig{Params: testParams(), Seed: 42, RNGSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := moved.IngestDocument(doc(0, 5, 7)); err != nil {
		t.Fatal(err)
	}
	if err := fed.Server.RegisterHTTPRemote("B", partyHost(t, moved), nil); err != nil {
		t.Fatal(err)
	}
	owner, err := fed.Server.OwnerFor("B", FieldBody)
	if err != nil {
		t.Fatal(err)
	}
	if owner == departed {
		t.Fatal("re-registration kept the departed endpoint's relay")
	}
	if _, ok := owner.(*routedOwner).api.(*HTTPOwner); !ok {
		t.Fatalf("the relay reaches a %T, want the HTTP host", owner.(*routedOwner).api)
	}
	if tf, err := fed.CrossTF("A", "B", FieldBody, 0, 5); err != nil || tf != 1 {
		t.Fatalf("CrossTF after re-registration = %v (%v), want the moved party's 1", tf, err)
	}
}
