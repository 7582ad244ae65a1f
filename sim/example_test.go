package sim_test

import (
	"fmt"
	"time"

	"rfd/sim"
)

// greeter prints the word its arg indexes when one of its events fires.
type greeter struct {
	k     *sim.Kernel
	words []string
}

func (g *greeter) HandleEvent(arg uint64) { fmt.Println(g.k.Now(), g.words[arg]) }

// Example schedules a few typed events and a cancelled timer on a kernel and
// drains it: events fire in virtual-time order with no wall-clock coupling.
func Example() {
	k := sim.NewKernel(sim.WithSeed(7))
	g := &greeter{k: k, words: []string{"hello", "world", "never printed"}}
	k.AtHandler(2*time.Second, "world", g, 1)
	k.AtHandler(time.Second, "hello", g, 0)
	doomed := k.AtHandler(3*time.Second, "never", g, 2)
	k.Cancel(doomed)
	if err := k.Run(); err != nil {
		fmt.Println("error:", err)
	}
	fmt.Println("executed:", k.Executed())
	// Output:
	// 1s hello
	// 2s world
	// executed: 2
}
