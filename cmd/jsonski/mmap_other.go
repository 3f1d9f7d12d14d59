//go:build !unix

package main

import "os"

// mapFile reports that nothing is mapped: on this system the caller
// reads the file.
func mapFile(*os.File, int64) ([]byte, bool) { return nil, false }

func unmap([]byte) {}
