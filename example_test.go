package csfltr_test

import (
	"fmt"
	"log"

	"csfltr"
)

// Example demonstrates the minimal cross-party workflow: two parties,
// one private corpus, one reverse top-K query and one TF query.
func Example() {
	params := csfltr.DefaultParams()
	params.Epsilon = 0 // deterministic output for the example
	params.K = 2

	fed, err := csfltr.NewDeterministicFederation([]string{"acme", "globex"}, params, 42, 1)
	if err != nil {
		log.Fatal(err)
	}
	vocab := csfltr.NewVocabulary()
	globex, _ := fed.Party("globex")
	globex.IngestDocument(csfltr.NewDocument(vocab, 0,
		"storage engines", "btree btree pages and wal logs for databases"))
	globex.IngestDocument(csfltr.NewDocument(vocab, 1,
		"salads", "tomato basil mozzarella"))

	term, _ := vocab.Lookup("btree")
	top, _, err := fed.ReverseTopK("acme", "globex", csfltr.FieldBody, uint64(term), 2, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top doc for btree: %d (count %.0f)\n", top[0].DocID, top[0].Count)

	tf, err := fed.CrossTF("acme", "globex", csfltr.FieldBody, 0, uint64(term))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("btree count in doc 0: %.0f\n", tf)
	// Output:
	// top doc for btree: 0 (count 2)
	// btree count in doc 0: 2
}

// ExampleFederation_Search ranks a whole query across every other
// party's private documents.
func ExampleFederation_Search() {
	params := csfltr.DefaultParams()
	params.Epsilon = 0
	fed, err := csfltr.NewDeterministicFederation([]string{"hq", "eu", "apac"}, params, 42, 1)
	if err != nil {
		log.Fatal(err)
	}
	vocab := csfltr.NewVocabulary()
	eu, _ := fed.Party("eu")
	eu.IngestDocument(csfltr.NewDocument(vocab, 0, "gdpr", "gdpr retention policy retention schedule"))
	apac, _ := fed.Party("apac")
	apac.IngestDocument(csfltr.NewDocument(vocab, 0, "apac", "retention basics"))

	retention, _ := vocab.Lookup("retention")
	policy, _ := vocab.Lookup("policy")
	res, err := fed.Search("hq", []uint64{uint64(retention), uint64(policy)}, 2)
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range res.Hits {
		fmt.Printf("%s/doc%d score %.0f\n", h.Party, h.DocID, h.Score)
	}
	// Output:
	// eu/doc0 score 3
	// apac/doc0 score 1
}

// ExampleNewDocument shows tokenization and vocabulary interning.
func ExampleNewDocument() {
	vocab := csfltr.NewVocabulary()
	doc := csfltr.NewDocument(vocab, 7, "A Title!", "Body text, body TEXT.")
	fmt.Println(len(doc.Title), doc.Len())
	id1, _ := vocab.Lookup("body")
	id2, _ := vocab.Lookup("text")
	fmt.Println(id1 != id2)
	// Output:
	// 2 4
	// true
}

// ExampleTokenize shows the tokenizer's normalization.
func ExampleTokenize() {
	fmt.Println(csfltr.Tokenize("Federated-LTR, at scale!"))
	// Output:
	// [federated ltr at scale]
}
