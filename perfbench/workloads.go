package main

import (
	"math/rand/v2"

	"impeccable/internal/service"
)

// instanceSet describes a published, finite set of campaign requests:
// their shared shape and how many there are. The requests themselves,
// with their reference science, are committed in reference/<name>.json
// (see genRefs). A workload seed only picks instances from the set and
// orders them; it never invents a request the references do not cover.
type instanceSet struct {
	name     string
	shape    service.SubmitRequest // target and sizes shared by every instance
	size     int
	seedBase uint64 // candidate c has seed seedBase+c
}

// candidate returns the c-th request genRefs considers for the set:
// its own seed and library window, so no two screen the same library.
func (s instanceSet) candidate(c int) service.SubmitRequest {
	r := s.shape
	r.Seed = s.seedBase + uint64(c)
	r.LibOffset = uint64(c) * 100_003
	return r
}

// workload is one benchmark load: the instance set its requests come
// from and, for a warm workload, how many instances set-up runs once
// before the measured phase resubmits exactly those.
type workload struct {
	name  string
	set   instanceSet
	prime int
}

// tailSmall is MD/ESMACS and AAE heavy: a 300-compound library docks
// three compounds, so S2 and S3-FG do most of the work.
var tailSmall = instanceSet{
	name: "tail-small",
	shape: service.SubmitRequest{
		Target: "PLPro", LibrarySize: 300, TrainSize: 20,
		CGCount: 3, TopCompounds: 1, OutliersPer: 2, FastProtocols: true,
	},
	size:     48,
	seedBase: 1000,
}

// screenCold is docking heavy: S1 docks a 30-compound training sample
// and the top of a 2,500-compound screen, and each job ships 2,500
// fresh feature vectors to the coordinator, while the MD tail is one
// compound and one conformer.
var screenCold = instanceSet{
	name: "screen-cold",
	shape: service.SubmitRequest{
		Target: "PLPro", LibrarySize: 2500, TrainSize: 30,
		CGCount: 1, TopCompounds: 1, OutliersPer: 1, FastProtocols: true,
	},
	size:     32,
	seedBase: 2000,
}

// workloads are the benchmark's named loads.
var workloads = map[string]workload{
	"tail-small":    {name: "tail-small", set: tailSmall},
	"screen-cold":   {name: "screen-cold", set: screenCold},
	"resubmit-warm": {name: "resubmit-warm", set: screenCold, prime: 2},
}

// tenants are the two closed-loop clients.
var tenants = [2]string{"a", "b"}

// plan is everything a workload seed decides: which tenant submits
// first, each tenant's requests in submit order (instance indices), and
// the instances set-up primes.
type plan struct {
	order  [2]string // order[0] submits first
	queues map[string][]int
	prime  []int
}

// warmQueueLen bounds how many resubmissions a warm tenant may make;
// a run ends on its clock long before.
const warmQueueLen = 1000

func makePlan(w workload, seed uint64) plan {
	r := rand.New(rand.NewPCG(seed, 0x1badb002))
	perm := r.Perm(w.set.size)
	p := plan{order: tenants, queues: map[string][]int{}}
	if r.IntN(2) == 1 {
		p.order = [2]string{tenants[1], tenants[0]}
	}
	if w.prime > 0 {
		p.prime = perm[:w.prime]
		for k := 0; k < warmQueueLen; k++ {
			for t, name := range p.order {
				p.queues[name] = append(p.queues[name], p.prime[(k+t)%len(p.prime)])
			}
		}
		return p
	}
	for k, idx := range perm {
		name := p.order[k%2]
		p.queues[name] = append(p.queues[name], idx)
	}
	return p
}
