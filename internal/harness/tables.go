package harness

import (
	"fmt"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/flash"
	"ciphermatch/internal/perfmodel"
	"ciphermatch/internal/ssd"
)

func init() {
	register(Experiment{ID: "table1", Title: "Comparison of prior Boolean and arithmetic approaches", Run: runTable1})
	register(Experiment{ID: "table2", Title: "Real CPU system configuration", Run: runTable2})
	register(Experiment{ID: "table3", Title: "Simulated system configurations (with derived quantities)", Run: runTable3})
	register(Experiment{ID: "overhead", Title: "CM-IFP storage and area overheads (§6.3, §7.1-7.2)", Run: runOverhead})
}

// runTable1 reproduces Table 1's qualitative matrix and adds the row for
// CIPHERMATCH plus the module implementing each approach in this repo.
func runTable1(m *perfmodel.Model) (*Table, error) {
	return &Table{
		ID:      "table1",
		Title:   "Prior-approach characteristics (Table 1) + this repository's implementations",
		Headers: []string{"Approach", "Prior work", "Exec. time", "Scalable", "SIMD", "Flexible query", "Implemented by"},
		Rows: [][]string{
			{"Boolean", "Pradel et al. [33]", "High", "yes", "no", "yes", "internal/core BooleanMatcher (no batching)"},
			{"Boolean", "Aziz et al. [17]", "High", "yes", "yes", "yes", "internal/core BooleanMatcher + model batching"},
			{"Arithmetic", "Yasuda et al. [27]", "Low", "no", "no", "no", "internal/core YasudaMatcher"},
			{"Arithmetic", "Kim et al. [34]", "High", "yes", "no", "no", "modelled only (HomEQ circuit)"},
			{"Arithmetic", "Bonte et al. [29]", "High", "yes", "yes", "no", "modelled only"},
			{"CIPHERMATCH", "this work", "Low", "yes", "yes", "yes*", "internal/core Client/Server"},
		},
		Notes: []string{
			"*flexible up to the boundary-bit caveat: occurrences shorter than 31 bits are only detectable at offsets leaving a full 16-bit window (DESIGN.md).",
		},
	}, nil
}

func runTable2(m *perfmodel.Model) (*Table, error) {
	r := m.Real
	return &Table{
		ID:      "table2",
		Title:   "Real CPU system (Table 2)",
		Headers: []string{"Component", "Configuration"},
		Rows: [][]string{
			{"CPU", fmt.Sprintf("%s, %d cores, %.1f GHz", r.CPU, r.Cores, r.ClockGHz)},
			{"L1/L2 private", fmt.Sprintf("%d KB / %d KB", r.L1KB, r.L2KB)},
			{"L3 shared", fmt.Sprintf("%d MB", r.L3MB)},
			{"Main memory", fmt.Sprintf("%d GB DDR4-2400, %d channels, %.1f GB/s", r.DRAMGB, r.DRAMChannels, r.DRAMBandwidth/1e9)},
			{"Storage", fmt.Sprintf("%s, %.0f GB/s PCIe", r.SSDModel, r.PCIeBandwidth/1e9)},
			{"OS", r.OS},
		},
	}, nil
}

func runTable3(m *perfmodel.Model) (*Table, error) {
	g := m.SSD.Geometry
	tm := m.SSD.Timing
	e := m.SSD.Energy
	t := &Table{
		ID:      "table3",
		Title:   "Simulated configurations (Table 3) and derived quantities",
		Headers: []string{"Quantity", "Value", "Paper value"},
		Rows: [][]string{
			{"NAND config", fmt.Sprintf("%dch x %ddies x %dplanes, %d blk/plane, %d WL/blk, %s pages",
				g.Channels, g.DiesPerChan, g.PlanesPerDie, g.BlocksPerPlane, g.WLsPerBlock(), bytesHuman(int64(g.PageBytes))), "same"},
			{"Tread (SLC)", tm.ReadSLC.String(), "22.5us"},
			{"TAND/OR", tm.AndOr.String(), "20ns"},
			{"Tlatch", tm.LatchTransfer.String(), "20ns"},
			{"TXOR", tm.Xor.String(), "30ns"},
			{"TDMA", tm.DMA.String(), "3.3us"},
			{"Tbop_add (Eq.10, derived)", tm.BopAdd().String(), "-"},
			{"Tbit_add (Eq.9, derived)", tm.BitAdd().String(), "29.38us"},
			{"Ebop_add (derived, 4KiB page)", fmt.Sprintf("%.2fuJ", e.BopAdd(4096)*1e6), "-"},
			{"Ebit_add (derived)", fmt.Sprintf("%.2fuJ", e.BitAdd(4096)*1e6), "32.22uJ/channel"},
			{"CM-PuM DRAM", fmt.Sprintf("%s, %d banks parallel-capable", m.DDR4.Name, m.DDR4.ParallelBanks()), "32GB DDR4-2400 4ch"},
			{"CM-PuM-SSD DRAM", m.LPDDR4.Name, "2GB LPDDR4-1866 1ch"},
			{"Tbbop", m.DDR4.Tbbop.String(), "49ns"},
			{"Ebbop", fmt.Sprintf("%.3fnJ", m.DDR4.Ebbop*1e9), "0.864nJ"},
			{"SSD ext. bandwidth", fmt.Sprintf("%.0fGB/s", m.Real.PCIeBandwidth/1e9), "7GB/s"},
			{"NAND channel rate", fmt.Sprintf("%.1fGB/s", m.SSD.ChannelBandwidth/1e9), "1.2GB/s"},
		},
		Notes: []string{
			fmt.Sprintf("derived Tbit_add differs from the paper's rounded value by %v (TDMA rounding)",
				(flash.PaperTBitAdd - tm.BitAdd()).Abs()),
		},
	}
	return t, nil
}

func runOverhead(m *perfmodel.Model) (*Table, error) {
	drive, err := ssd.New(m.SSD, bfv.ParamsPaper(), ssd.SoftwareTransposition)
	if err != nil {
		return nil, err
	}
	r := drive.Overheads()
	return &Table{
		ID:      "overhead",
		Title:   "CM-IFP overheads",
		Headers: []string{"Overhead", "Value", "Paper value"},
		Rows: [][]string{
			{"Result staging (internal DRAM)", bytesHuman(r.ResultStagingBytes), "0.5MB"},
			{"bop_add u-program", bytesHuman(r.MicroprogramBytes), "<1KB"},
			{"SLC-mode capacity loss", bytesHuman(r.SLCCapacityLossBytes), "2/3 of CM region"},
			{"NAND peripheral area", fmt.Sprintf("%.1f%%", r.PeripheralAreaOverheadPct), "0.6%"},
			{"HW transposition unit", fmt.Sprintf("%.2fmm2, %v/4KiB", r.TransposeUnitAreaMM2, m.SSD.HardTransposeLatency), "0.24mm2, 158ns"},
			{"AES index encryption", fmt.Sprintf("%.2fmm2, %.1fns/16B", r.AESUnitAreaMM2, r.AESLatencyPer16BNanos), "0.13mm2, 12.6ns"},
		},
	}, nil
}
