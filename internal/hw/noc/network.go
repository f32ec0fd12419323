package noc

import (
	"repro/internal/hw/fault"
	"repro/internal/hw/hwsim"
)

// Network is a stateful interconnect: a Config plus a hwsim counter
// tally, so the NoC's traffic and energy appear as a node ("noc") in a
// chip's counter tree. Config stays a pure pricing function; Network
// is the accountable block an engine mounts. Its snapshot hook derives
// reads_per_cycle, the mean SRAM read rate while distributing (the
// y-axis of Fig. 11b).
type Network struct {
	cfg Config
	ctr *hwsim.Counters

	// faults, when attached, drops flits out of each priced delivery;
	// the network reacts with bounded retransmission (backoff + resend
	// cycles and energy folded into the Delivery it returns).
	faults *fault.Plan
}

// NewNetwork wraps a Config with a counter node.
func NewNetwork(cfg Config) *Network {
	n := &Network{cfg: cfg, ctr: hwsim.New("noc")}
	n.ctr.OnSnapshot(func(c *hwsim.Counters) {
		if cyc := c.IntValue("cycles"); cyc > 0 {
			c.SetFloat("reads_per_cycle",
				float64(c.IntValue("sram_reads"))/float64(cyc))
		}
	})
	return n
}

// AttachFaults wires a fault plan into the network. Deliveries then
// suffer seeded flit drops and the network retransmits: each attempt
// charges an exponential backoff plus one cycle per resent flit, and
// resent flits pay hop energy again. Flits still outstanding after the
// retry budget are counted as lost. All recovery work is itemized
// under the plan's "fault/noc" scope. Passing nil detaches.
func (n *Network) AttachFaults(p *fault.Plan) { n.faults = p }

// Counters returns the live registry node.
func (n *Network) Counters() *hwsim.Counters { return n.ctr }

// Reset zeroes the tally.
func (n *Network) Reset() { n.ctr.Reset() }

// Distribute prices one wave of parent-gene distribution and charges
// it to the tally.
func (n *Network) Distribute(streams []Stream) Delivery {
	d := n.cfg.Distribute(streams)
	n.faultAdjust(&d)
	n.charge(d)
	return d
}

// Collect prices child-gene collection and charges it to the tally.
func (n *Network) Collect(childGenes int64) Delivery {
	d := n.cfg.Collect(childGenes)
	n.faultAdjust(&d)
	n.charge(d)
	return d
}

// faultAdjust applies the attached fault plan to one priced delivery:
// flits drop at the configured rate, the network retries up to the
// bounded budget (backoff doubling per attempt, one cycle per resent
// flit, hop energy paid again), and anything left is lost. The
// inflated Cycles/EnergyPJ flow back through the caller's wave timing.
func (n *Network) faultAdjust(d *Delivery) {
	p := n.faults
	if p == nil || d.Deliveries <= 0 {
		return
	}
	cfg := p.Config()
	hopPJ := n.cfg.hops() * n.cfg.HopEnergyPJ
	fc := p.NoCCounters()
	outstanding := p.NoCDrops(d.Deliveries)
	for attempt := 1; outstanding > 0 && attempt <= cfg.MaxRetriesOrDefault(); attempt++ {
		backoff := cfg.BackoffCyclesOrDefault() << (attempt - 1)
		resend := outstanding
		d.Cycles += backoff + resend // resends replay at one flit per cycle
		d.EnergyPJ += float64(resend) * hopPJ
		fc.AddInt("retransmitted_flits", resend)
		fc.AddInt("backoff_cycles", backoff)
		fc.AddInt("retransmit_cycles", resend)
		outstanding = p.NoCDrops(resend)
	}
	if outstanding > 0 {
		fc.AddInt("lost_flits", outstanding)
	}
}

func (n *Network) charge(d Delivery) {
	n.ctr.AddInt("sram_reads", d.SRAMReads)
	n.ctr.AddInt("deliveries", d.Deliveries)
	n.ctr.AddInt("cycles", d.Cycles)
	n.ctr.AddFloat("energy_pj", d.EnergyPJ)
}
