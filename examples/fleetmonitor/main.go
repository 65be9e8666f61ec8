// Fleetmonitor: closed-loop overload control with THROTLOOP. A logistics
// fleet reports positions to an under-provisioned server whose input queue
// can only absorb a fraction of the full update stream. Without source
// shedding the queue overflows and sheds its oldest reports. With THROTLOOP
// the server measures its utilization each period, lowers the throttle
// fraction z, and re-runs the LIRA adaptation — the update stream shrinks
// at the source until the queue stabilizes.
//
// Run with: go run ./examples/fleetmonitor
package main

import (
	"fmt"
	"log"

	"lira"
)

const (
	vehicles  = 1500
	queueSize = 100
	// serviceRate is the updates/second the under-provisioned server can
	// integrate — about half of what the fleet generates at full
	// resolution.
	serviceRate = 120
	period      = 30 // seconds between THROTLOOP observations
)

func main() {
	net := lira.GenerateRoadNetwork(lira.RoadConfig{
		Side: 6000, GridStep: 300, Centers: 2, CenterRadius: 1200, Seed: 21,
	})
	fleet := lira.NewTraceSource(net, lira.TraceConfig{N: vehicles, Seed: 22})
	curve := lira.Hyperbolic(5, 100, 95)

	srv, err := lira.NewServer(lira.ServerConfig{
		Space:     net.Space,
		Nodes:     vehicles,
		L:         49,
		QueueSize: queueSize,
		Curve:     curve,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Warm statistics and register dispatcher queries.
	speeds := make([]float64, vehicles)
	for tick := 0; tick < 60; tick++ {
		fleet.Step(1)
		if tick%10 == 0 {
			for i, v := range fleet.Velocities() {
				speeds[i] = v.Len()
			}
			srv.ObserveStatistics(fleet.Positions(), speeds)
		}
	}
	queries, err := lira.GenerateQueries(net.Space, fleet.Positions(), lira.QueryConfig{
		Count: 15, SideLength: 1000, Distribution: lira.Proportional, Seed: 23,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv.RegisterQueries(queries)

	// Start at z=1 (no shedding) and let the loop find the feasible z.
	ad, err := srv.Adapt(1)
	if err != nil {
		log.Fatal(err)
	}
	policy := compile(net, ad)

	nodes := make([]*lira.Node, vehicles)
	pos, vel := fleet.Positions(), fleet.Velocities()
	for i := range nodes {
		nodes[i] = lira.NewNode(i)
		nodes[i].Install(0, policy)
		srv.IngestShedOldest(lira.Update{Node: i, Report: nodes[i].Start(pos[i], vel[i], 60)})
	}

	fmt.Println("period |     z | offered/s | served/s |    shed | queue")
	fmt.Println("-------+-------+-----------+----------+---------+------")
	lastDropped := srv.Queue().Dropped()
	for p := 1; p <= 8; p++ {
		offered := int64(0)
		for t := 0; t < period; t++ {
			fleet.Step(1)
			now := float64(60 + (p-1)*period + t + 1)
			pos, vel = fleet.Positions(), fleet.Velocities()
			for i, nd := range nodes {
				if rep, send := nd.Observe(pos[i], vel[i], now, curve.MinDelta()); send {
					srv.IngestShedOldest(lira.Update{Node: i, Report: rep})
					offered++
				}
			}
			// The server can integrate only serviceRate updates/second.
			n := srv.Drain(serviceRate)
			srv.Queue().ObserveBusy(float64(n) / serviceRate)
		}
		shed := srv.Queue().Dropped() - lastDropped
		lastDropped = srv.Queue().Dropped()
		served := srv.Queue().Served()

		// THROTLOOP: observe utilization, adapt, redistribute.
		ad, err = srv.AdaptAuto(period)
		if err != nil {
			log.Fatal(err)
		}
		policy = compile(net, ad)
		for _, nd := range nodes {
			nd.Install(0, policy) // single logical station for brevity
		}
		_ = served
		fmt.Printf("%6d | %.3f | %9.1f | %8d | %7d | %5d\n",
			p, ad.Z, float64(offered)/period, serviceRate, shed, srv.Queue().Len())
	}
	fmt.Println("\nthe throttle fraction settles where the offered load matches the")
	fmt.Println("service rate and queue sheds collapse — shedding moved from the")
	fmt.Println("server's input queue to the vehicles themselves.")
}

// compile flattens an adaptation into one node-side assignment (this
// example keeps a single logical base station covering the whole fleet).
func compile(net *lira.RoadNetwork, ad *lira.Adaptation) *lira.CompiledAssignment {
	station := lira.Station{ID: 0, Center: net.Space.Center(),
		Radius: net.Space.Width()} // covers everything
	deploy, err := lira.NewDeployment([]lira.Station{station}, ad.Partitioning, ad.Deltas)
	if err != nil {
		log.Fatal(err)
	}
	return lira.CompileAssignment(deploy.Assignments[0])
}
