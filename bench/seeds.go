package main

// excludedSeeds are the seeds in 1..600 on which, when the benchmark was
// defined, a sweep fails (throughput's SecSMT row finds no stall signal) or
// a report disagrees with the paper's Table 2 or mitigation matrix.
var excludedSeeds = []int64{4, 23, 50, 51, 57, 83, 87, 99, 104, 112, 113, 128, 145, 170,
	178, 208, 210, 214, 289, 290, 295, 315, 322, 337, 454, 509, 518, 532, 539, 540, 556,
	585, 595, 597}

// seedPool holds the experiment seeds every workload draws from: 1..600
// without excludedSeeds, so every operation succeeds and every check holds
// at that commit. A later commit that fails on one of them shows as failed
// operations or a failed check.
var seedPool = func() []int64 {
	skip := map[int64]bool{}
	for _, s := range excludedSeeds {
		skip[s] = true
	}
	var pool []int64
	for s := int64(1); s <= 600; s++ {
		if !skip[s] {
			pool = append(pool, s)
		}
	}
	return pool
}()

// warmSeed is the seed of every warm-up request; timed requests never use it.
var warmSeed = seedPool[len(seedPool)-1]

// seedOrder is the pool without warmSeed, in the order a run with this seed
// uses it.
func seedOrder(seed int64) []int64 {
	perm := rngFor(seed, "seeds").Perm(len(seedPool) - 1)
	out := make([]int64, len(perm))
	for i, j := range perm {
		out[i] = seedPool[j]
	}
	return out
}
