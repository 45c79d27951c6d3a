package netchord_test

import (
	"fmt"
	"log"

	"chordbalance/internal/faults"
	"chordbalance/internal/keys"
	"chordbalance/internal/netchord"
)

// ExampleLockstep builds a small ring of the shipped protocol in
// lockstep, stores a value with three copies, crashes the key's owner,
// and shows the data surviving — the substrate behavior the paper's
// simulation assumes.
func ExampleLockstep() {
	l, err := netchord.NewLockstep(netchord.Config{Replicas: 3}, faults.Plan{}, 12, keys.NewGenerator(7).Next)
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	key := keys.HashString("config")
	if err := l.Client().Put(key, []byte("v1")); err != nil {
		log.Fatal(err)
	}

	// Crash the key's owner; the ring heals and a replica answers.
	owner, _, err := l.Nodes()[0].Lookup(key)
	if err != nil {
		log.Fatal(err)
	}
	if err := l.Kill(owner.ID); err != nil {
		log.Fatal(err)
	}
	_, ok := l.Converge(128)
	v, err := l.Client().Get(key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after owner crash:", string(v))
	fmt.Println("ring converged:", ok)
	// Output:
	// after owner crash: v1
	// ring converged: true
}
