// Package fastforward (badconsts fixture): the Group values drifted off
// the Table 1 order that SkippedBytes arrays are indexed by.
package fastforward

type Group int

const (
	G1        Group = iota + 1 // want `G1 = 1, want 0`
	G2                         // want `G2 = 2, want 1`
	G3                         // want `G3 = 3, want 2`
	G4                         // want `G4 = 4, want 3`
	G5                         // want `G5 = 5, want 4`
	NumGroups                  // want `NumGroups = 6, want 5`
)
