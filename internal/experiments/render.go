package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"
)

// Every renderer below writes through a tabwriter into an in-memory
// strings.Builder, so writes are structurally infallible; wprintf,
// wprintln and flushTable state that contract once instead of
// discarding an error at every call site.

// wprintf is fmt.Fprintf to an in-memory destination; the error is
// structurally nil.
func wprintf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// wprintln is fmt.Fprintln to an in-memory destination.
func wprintln(w io.Writer, args ...any) {
	_, _ = fmt.Fprintln(w, args...)
}

// flushTable flushes a tabwriter whose underlying writer is in-memory.
func flushTable(tw *tabwriter.Writer) { _ = tw.Flush() }

// RenderTable1 formats a Table1Result in the layout of the paper's
// Table I.
func RenderTable1(res *Table1Result) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	wprintln(tw, "method\tparty\tERR\tnDCG@10\tnDCG")
	for i, name := range res.PartyNames {
		m := res.Local.PerParty[i]
		wprintf(tw, "Local\tParty %s\t%.3f\t%.3f\t%.3f\n", name, m.ERR, m.NDCG10, m.NDCG)
	}
	a := res.Local.Average
	wprintf(tw, "Local\tAverage\t%.3f\t%.3f\t%.3f\n", a.ERR, a.NDCG10, a.NDCG)
	for i, name := range res.PartyNames {
		m := res.LocalPlus.PerParty[i]
		wprintf(tw, "Local+\tParty %s\t%.3f\t%.3f\t%.3f\n", name, m.ERR, m.NDCG10, m.NDCG)
	}
	a = res.LocalPlus.Average
	wprintf(tw, "Local+\tAverage\t%.3f\t%.3f\t%.3f\n", a.ERR, a.NDCG10, a.NDCG)
	wprintf(tw, "Global\t\t%.3f\t%.3f\t%.3f\n", res.Global.ERR, res.Global.NDCG10, res.Global.NDCG)
	wprintf(tw, "CS-F-LTR\t\t%.3f\t%.3f\t%.3f\n", res.CSFLTR.ERR, res.CSFLTR.NDCG10, res.CSFLTR.NDCG)
	flushTable(tw)
	fmt.Fprintf(&b, "\naugmented instances per party: %v (local: %v)\n", res.AugSizes, res.LocalSizes)
	fmt.Fprintf(&b, "augmentation cost: %d messages, %.1f KB received\n",
		res.AugmentCost.Messages, float64(res.AugmentCost.BytesReceived)/1024)
	fmt.Fprintf(&b, "server traffic: %d messages, %.1f KB\n",
		res.ServerTraffic.Messages, float64(res.ServerTraffic.Bytes)/1024)
	return b.String()
}

// RenderFig4 formats one Fig. 4 sweep as an aligned table.
func RenderFig4(points []Fig4Point) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	wprintln(tw, "param\tvalue\tcover-rate\trtk-us\tnaive-us\trtk-KB\tnaive-KB\trtk-resp-B\tnaive-resp-B")
	for _, p := range points {
		naiveUs := "-"
		if p.NaiveQueryMicros > 0 {
			naiveUs = fmt.Sprintf("%.1f", p.NaiveQueryMicros)
		}
		naiveResp := "-"
		if p.NaiveRespBytes > 0 {
			naiveResp = fmt.Sprintf("%d", p.NaiveRespBytes)
		}
		wprintf(tw, "%s\t%g\t%.3f\t%.1f\t%s\t%.1f\t%.1f\t%d\t%s\n",
			p.Param, p.Value, p.CoverRate, p.RTKQueryMicros, naiveUs,
			float64(p.RTKSpaceBytes)/1024, float64(p.NaiveSpaceBytes)/1024,
			p.RTKRespBytes, naiveResp)
	}
	flushTable(tw)
	return b.String()
}

// WriteFig4CSV writes a sweep as CSV.
func WriteFig4CSV(w io.Writer, points []Fig4Point) error {
	if _, err := fmt.Fprintln(w, "param,value,cover_rate,rtk_us,naive_us,rtk_space_bytes,naive_space_bytes,rtk_resp_bytes,naive_resp_bytes"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%s,%g,%.6f,%.3f,%.3f,%d,%d,%d,%d\n",
			p.Param, p.Value, p.CoverRate, p.RTKQueryMicros, p.NaiveQueryMicros,
			p.RTKSpaceBytes, p.NaiveSpaceBytes, p.RTKRespBytes, p.NaiveRespBytes); err != nil {
			return err
		}
	}
	return nil
}

// RenderFig5 formats the separability probes of every panel; the paper's
// visual claim becomes a comparable table.
func RenderFig5(panels []Fig5Panel) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	wprintln(tw, "strategy\tprobe-acc\tcentroid-margin\tsilhouette")
	for _, p := range panels {
		wprintf(tw, "%s\t%.3f\t%.3f\t%.3f\n",
			p.Strategy.Name, p.Probes.ProbeAccuracy, p.Probes.CentroidMargin, p.Probes.Silhouette)
	}
	flushTable(tw)
	return b.String()
}

// WriteFig5PointsCSV writes one panel's embedding as CSV
// (x, y, label).
func WriteFig5PointsCSV(w io.Writer, panel Fig5Panel) error {
	if _, err := fmt.Fprintln(w, "x,y,label"); err != nil {
		return err
	}
	for i, pt := range panel.Points {
		if _, err := fmt.Fprintf(w, "%.6f,%.6f,%d\n", pt[0], pt[1], panel.Labels[i]); err != nil {
			return err
		}
	}
	return nil
}

// Scatter renders a 2-D labelled point cloud as ASCII art (o = positive,
// . = negative, 8 = overlap), the terminal stand-in for Fig. 5's panels.
func Scatter(points [][]float64, labels []int, width, height int) string {
	if len(points) == 0 || width < 2 || height < 2 {
		return ""
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range points {
		minX = math.Min(minX, p[0])
		maxX = math.Max(maxX, p[0])
		minY = math.Min(minY, p[1])
		maxY = math.Max(maxY, p[1])
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for i, p := range points {
		x := int((p[0] - minX) / (maxX - minX) * float64(width-1))
		y := int((p[1] - minY) / (maxY - minY) * float64(height-1))
		ch := byte('.')
		if labels[i] > 0 {
			ch = 'o'
		}
		cur := grid[y][x]
		switch {
		case cur == ' ':
			grid[y][x] = ch
		case cur != ch:
			grid[y][x] = '8' // both classes in one cell
		}
	}
	var b strings.Builder
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderEstimatorAblation formats the estimator ablation side by side.
func RenderEstimatorAblation(ab *EstimatorAblation) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	wprintf(tw, "%s\tcover(zero-fill)\tcover(present-rows)\n", ab.Param)
	for i := range ab.ZeroFill {
		wprintf(tw, "%g\t%.3f\t%.3f\n",
			ab.ZeroFill[i].Value, ab.ZeroFill[i].CoverRate, ab.Present[i].CoverRate)
	}
	flushTable(tw)
	return b.String()
}

// RenderAggregatorAblation formats the aggregation-strategy ablation.
func RenderAggregatorAblation(ab *AggregatorAblation) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	wprintln(tw, "aggregator\tERR\tnDCG@10\tnDCG")
	wprintf(tw, "round-robin\t%.3f\t%.3f\t%.3f\n",
		ab.RoundRobin.ERR, ab.RoundRobin.NDCG10, ab.RoundRobin.NDCG)
	wprintf(tw, "fedavg\t%.3f\t%.3f\t%.3f\n",
		ab.FedAvg.ERR, ab.FedAvg.NDCG10, ab.FedAvg.NDCG)
	flushTable(tw)
	return b.String()
}

// RenderFig6a formats the privacy-budget sweep.
func RenderFig6a(points []Fig6aPoint) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	wprintln(tw, "epsilon\tERR\tnDCG@10\tnDCG")
	for _, p := range points {
		eps := fmt.Sprintf("%g", p.Epsilon)
		if p.Epsilon == 0 {
			eps = "off"
		}
		wprintf(tw, "%s\t%.3f\t%.3f\t%.3f\n", eps, p.Metrics.ERR, p.Metrics.NDCG10, p.Metrics.NDCG)
	}
	flushTable(tw)
	return b.String()
}

// RenderFig6b formats the party-count sweep.
func RenderFig6b(points []Fig6bPoint) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	wprintln(tw, "parties\tERR\tnDCG@10\tnDCG")
	for _, p := range points {
		wprintf(tw, "%d\t%.3f\t%.3f\t%.3f\n", p.Parties, p.Metrics.ERR, p.Metrics.NDCG10, p.Metrics.NDCG)
	}
	flushTable(tw)
	return b.String()
}

// RenderHeadline formats the NAIVE vs RTK headline comparison.
func RenderHeadline(res *HeadlineResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "reverse top-K over %d documents (single term):\n", res.Docs)
	fmt.Fprintf(&b, "  NAIVE: %.2f ms/query, %.1f KB response, %.1f MB owner memory\n",
		res.NaiveMillis, float64(res.NaiveBytes)/1024, float64(res.NaiveSpace)/(1024*1024))
	fmt.Fprintf(&b, "  RTK:   %.3f ms/query, %.1f KB response, %.1f MB owner memory\n",
		res.RTKMillis, float64(res.RTKBytes)/1024, float64(res.RTKSpace)/(1024*1024))
	fmt.Fprintf(&b, "  speedup: %.0fx, space reduction: %.1fx, cover rate: %.3f\n",
		res.Speedup, res.SpaceReduction, res.CoverRate)
	fmt.Fprintf(&b, "  deployed at %.1f ms RTT (NAIVE: 1 round trip/doc, RTK: 1 total):\n", res.RTTMillis)
	fmt.Fprintf(&b, "    NAIVE %.1f s vs RTK %.1f ms (%.0fx)\n",
		res.NaiveDeployedSec, res.RTKDeployedMs, res.DeployedSpeedup)
	return b.String()
}
