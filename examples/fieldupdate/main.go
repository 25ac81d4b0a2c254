// Field update: partial reconfiguration of a deployed design. Two revisions
// of a design are compiled onto the SAME fabric; the bitstream delta shows
// how little of the configuration has to be rewritten to move a deployed
// device from revision 1 to revision 2.
//
// Run with: go run ./examples/fieldupdate
package main

import (
	"fmt"
	"log"

	"fpgaflow"
	"fpgaflow/internal/arch"
	"fpgaflow/internal/bitstream"
	"fpgaflow/internal/place"
)

const rev1 = `
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity filter is
  port (
    clk, rst : in std_logic;
    d   : in std_logic_vector(3 downto 0);
    q   : out std_logic_vector(3 downto 0)
  );
end filter;
architecture rtl of filter is
  signal acc : std_logic_vector(3 downto 0);
begin
  process (clk)
  begin
    if rst = '1' then
      acc <= (others => '0');
    elsif rising_edge(clk) then
      acc <= std_logic_vector(unsigned(acc) + unsigned(d));
    end if;
  end process;
  q <= acc;
end rtl;
`

// Revision 2 compensates for a board that delivers d with its two halves
// swapped. The fix reconnects the input pads to different adder bits, so
// the delta rewrites routing switches as well as LUT masks.
const rev2 = `
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity filter is
  port (
    clk, rst : in std_logic;
    d   : in std_logic_vector(3 downto 0);
    q   : out std_logic_vector(3 downto 0)
  );
end filter;
architecture rtl of filter is
  signal acc : std_logic_vector(3 downto 0);
begin
  process (clk)
  begin
    if rst = '1' then
      acc <= (others => '0');
    elsif rising_edge(clk) then
      acc <= std_logic_vector(unsigned(acc) + unsigned(d(1 downto 0) & d(3 downto 2)));
    end if;
  end process;
  q <= acc;
end rtl;
`

func main() {
	// Both revisions must target the identical fabric (fixed grid) and,
	// for a deployed board, the identical pinout.
	a := arch.Paper()
	a.Rows, a.Cols = 4, 4
	a.Routing.ChannelWidth = 12
	pins := map[string]place.Location{
		"clk": {X: 0, Y: 1, Sub: 0}, "rst": {X: 0, Y: 2, Sub: 0},
		"d[0]": {X: 1, Y: 0, Sub: 0}, "d[1]": {X: 2, Y: 0, Sub: 0}, "d[2]": {X: 3, Y: 0, Sub: 0}, "d[3]": {X: 4, Y: 0, Sub: 0},
		"out:q[0]": {X: 5, Y: 1, Sub: 0}, "out:q[1]": {X: 5, Y: 2, Sub: 0}, "out:q[2]": {X: 5, Y: 3, Sub: 0}, "out:q[3]": {X: 5, Y: 4, Sub: 0},
	}

	compile := func(src string) *fpgaflow.Result {
		res, err := fpgaflow.Run(src, fpgaflow.Options{Seed: 1, Arch: a, FixedPads: pins})
		if err != nil {
			log.Fatal(err)
		}
		if !res.Verified {
			log.Fatal("bitstream failed verification")
		}
		return res
	}
	r1 := compile(rev1)
	r2 := compile(rev2)
	fmt.Printf("revision 1: %d bytes bitstream, %d LUTs\n", len(r1.Encoded), r1.Metrics.LUTs)
	fmt.Printf("revision 2: %d bytes bitstream, %d LUTs (same grid, same pinout)\n", len(r2.Encoded), r2.Metrics.LUTs)

	d, err := bitstream.Diff(r1.Bits, r2.Bits)
	if err != nil {
		log.Fatal(err)
	}
	total, err := bitstream.NumConfigBits(a)
	if err != nil {
		log.Fatal(err)
	}
	switches := d.Switches + d.OPins + d.IPins
	if switches == 0 {
		log.Fatal("the revisions route identically: the delta exercises no routing switch")
	}
	fmt.Printf("\npartial reconfiguration delta: %d items (%d tiles, %d switch changes)\n",
		d.Size(), len(d.CLBs), switches)
	fmt.Printf("full fabric configuration is %d bits; the field update rewrites only the delta\n", total)

	// Prove the patch: apply the delta to revision 1's configuration and
	// check it now implements revision 2.
	patched := r1.Bits.Clone()
	if err := bitstream.Apply(patched, d); err != nil {
		log.Fatal(err)
	}
	if _, err := bitstream.Extract(patched); err != nil {
		log.Fatal(err)
	}
	fmt.Println("patched configuration extracts cleanly: field update verified")
}
