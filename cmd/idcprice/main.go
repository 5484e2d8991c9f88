// Command idcprice inspects and generates electricity price series: the
// embedded Fig. 2 reconstructions and samples from the bid-based stochastic
// model (load coupling plus OU disturbance).
//
// Usage:
//
//	idcprice                         # 24 h embedded traces as CSV
//	idcprice -region wisconsin
//	idcprice -stochastic -load 12 -hours 48 -seed 7
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/price"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "idcprice:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("idcprice", flag.ContinueOnError)
	region := fs.String("region", "", "restrict to one region (michigan, minnesota, wisconsin)")
	hours := fs.Int("hours", 24, "number of hourly samples")
	stochastic := fs.Bool("stochastic", false, "sample the bid-stack stochastic model")
	loadMW := fs.Float64("load", 10, "buyer load in MW for the stochastic model")
	sensitivity := fs.Float64("sensitivity", 0.5, "bid-stack $/MWh per MW deviation")
	sigma := fs.Float64("sigma", 2, "OU noise scale in $/MWh")
	seed := fs.Int64("seed", 1, "random seed")
	volatility := fs.Bool("volatility", false, "print per-region volatility instead of series")
	if err := fs.Parse(args); err != nil {
		return err
	}

	regions := price.Regions()
	if *region != "" {
		regions = []price.Region{price.Region(*region)}
	}

	// Everything is written to buf first and reaches out only once the last
	// value is computed, so a run that fails prints nothing instead of a
	// truncated series.
	var buf bytes.Buffer
	if *volatility {
		for _, r := range regions {
			tr, err := price.Embedded(r)
			if err != nil {
				return err
			}
			fmt.Fprintf(&buf, "%s,%s\n", r, strconv.FormatFloat(price.Volatility(tr.Hourly()), 'g', 6, 64))
		}
		_, err := buf.WriteTo(out)
		return err
	}

	var model price.Model = price.NewEmbeddedModel()
	if *stochastic {
		model = price.NewBidStackModel(price.NewEmbeddedModel(), price.BidStackConfig{
			Sensitivity: *sensitivity,
			Sigma:       *sigma,
			Seed:        *seed,
		})
	}

	header := []string{"hour"}
	for _, r := range regions {
		header = append(header, string(r))
	}
	fmt.Fprintln(&buf, strings.Join(header, ","))
	for h := 0; h < *hours; h++ {
		row := []string{strconv.Itoa(h)}
		for _, r := range regions {
			p, err := model.Price(r, h, *loadMW)
			if err != nil {
				return err
			}
			row = append(row, strconv.FormatFloat(p, 'g', 6, 64))
		}
		fmt.Fprintln(&buf, strings.Join(row, ","))
	}
	_, err := buf.WriteTo(out)
	return err
}
