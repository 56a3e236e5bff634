// Federated search over TCP: a coordinating server hosts two companies'
// sketched document collections behind its HTTP gateway; a remote
// querier runs both reverse top-K algorithms against it, comparing
// their cost — the deployment topology of Section III with real sockets.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"

	"csfltr/internal/core"
	"csfltr/internal/federation"
	"csfltr/internal/textkit"
)

// sharedSeed stands in for the DH-agreed hash seed; see package keyex
// for the real ceremony (the server never learns this value).
const sharedSeed = 0xFEED5EED

func main() {
	params := core.DefaultParams()
	params.Epsilon = 0 // measure the sketches, not the DP noise
	params.K = 5

	vocab := textkit.NewVocabulary()

	// --- Server side: two document owners behind one coordinator. ---
	fed, err := federation.NewDeterministic([]string{"press", "wire"}, params, sharedSeed, 1)
	if err != nil {
		log.Fatal(err)
	}
	ingest := func(party string, texts map[int]string) {
		p, err := fed.Party(party)
		if err != nil {
			log.Fatal(err)
		}
		for id, text := range texts {
			doc := textkit.NewDocument(id, -1,
				vocab.InternAll(textkit.Tokenize(fmt.Sprintf("%s article %d", party, id))),
				vocab.InternAll(textkit.Tokenize(text)))
			if err := p.IngestDocument(doc); err != nil {
				log.Fatal(err)
			}
		}
	}
	ingest("press", map[int]string{
		0: "election results election night coverage polls close early",
		1: "storm warning coastal flooding evacuation routes announced",
		2: "election recount ordered after narrow election margin",
	})
	ingest("wire", map[int]string{
		0: "markets rally as election uncertainty fades election trading volume spikes",
		1: "cooking column: one pot pasta for weeknights",
		2: "election watchdog reports record election turnout election observers deployed",
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: federation.HTTPHandler(fed.Server)}
	go func() { _ = srv.Serve(ln) }() // returns once Close is called
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("federation server listening on", base)

	// --- Client side: a remote querier with only the shared hash seed. ---
	querier, err := core.NewQuerier(params, sharedSeed, rand.New(rand.NewSource(7)))
	if err != nil {
		log.Fatal(err)
	}
	term, _ := vocab.Lookup("election")

	for _, owner := range []string{"press", "wire"} {
		remote := federation.NewHTTPOwner(base, owner, federation.FieldBody, nil)
		rtk, rtkCost, err := core.RTKReverseTopK(querier, remote, uint64(term), 3)
		if err != nil {
			log.Fatal(err)
		}
		naive, naiveCost, err := core.NaiveReverseTopK(querier, remote, uint64(term), 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%q at party %s:\n", "election", owner)
		fmt.Printf("  RTK   (1 round trip, %4d B down): %v\n", rtkCost.BytesReceived, fmtDocs(rtk))
		fmt.Printf("  NAIVE (%d round trips, %4d B down): %v\n",
			naiveCost.Messages, naiveCost.BytesReceived, fmtDocs(naive))
	}

	tr := fed.Server.Traffic()
	fmt.Printf("\nserver relayed %d messages, %d bytes in total\n", tr.Messages, tr.Bytes)
}

func fmtDocs(dcs []core.DocCount) string {
	out := ""
	for i, dc := range dcs {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("doc%d(%.0f)", dc.DocID, dc.Count)
	}
	if out == "" {
		out = "(none)"
	}
	return out
}
