package energy

import "repro/internal/hw/hwsim"

// Model exposes a design point's static technology figures — the
// Fig. 8 area and roofline-power breakdowns — as a hwsim counter node
// named "tech", so design-point constants travel in the same report
// tree as the activity counters they contextualize. The values are
// refreshed at every snapshot, so they survive tree resets.
type Model struct {
	cfg SoCConfig
	ctr *hwsim.Counters
}

// NewModel wraps a design point.
func NewModel(cfg SoCConfig) *Model {
	m := &Model{cfg: cfg, ctr: hwsim.New("tech")}
	m.ctr.OnSnapshot(func(c *hwsim.Counters) { m.fill() })
	m.fill()
	return m
}

func (m *Model) fill() {
	a := m.cfg.Area()
	p := m.cfg.RooflinePower()
	c := m.ctr
	area := c.Child("area")
	area.SetFloat("eve_mm2", a.EvE)
	area.SetFloat("adam_mm2", a.ADAM)
	area.SetFloat("sram_mm2", a.SRAM)
	area.SetFloat("cpu_mm2", a.CPU)
	area.SetFloat("noc_mm2", a.NoC)
	area.SetFloat("total_mm2", a.Total)
	power := c.Child("power")
	power.SetFloat("eve_mw", p.EvE)
	power.SetFloat("adam_mw", p.ADAM)
	power.SetFloat("sram_mw", p.SRAM)
	power.SetFloat("cpu_mw", p.CPU)
	power.SetFloat("total_mw", p.Total)
	c.SetFloat("frequency_hz", m.cfg.Tech.FrequencyHz)
	c.SetInt("eve_pes", int64(m.cfg.NumEvEPEs))
	c.SetInt("adam_macs", int64(m.cfg.MACs()))
	c.SetInt("sram_banks", int64(m.cfg.Tech.SRAMBanks))
	c.SetInt("sram_kb", int64(m.cfg.SRAMKB))
}

// Counters returns the live registry node.
func (m *Model) Counters() *hwsim.Counters { return m.ctr }
