// Positive fixture: global math/rand draws, which no package may use.
package main

import (
	"math/rand"
	mrand "math/rand"
)

func draws(n int) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, rand.Float64()) // want `global rand\.Float64 is not seed-reproducible`
	}
	rand.Seed(42)                                                       // want `global rand\.Seed is not seed-reproducible`
	_ = rand.Intn(10)                                                   // want `global rand\.Intn is not seed-reproducible`
	_ = mrand.Perm(4)                                                   // want `global mrand\.Perm is not seed-reproducible`
	rand.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] }) // want `global rand\.Shuffle is not seed-reproducible`
	return out
}
