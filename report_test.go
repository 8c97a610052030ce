package pgti

import (
	"reflect"
	"sort"
	"testing"
)

// TestReportFieldsStable: Report's field names and types, promoted ones
// included, are the public result surface. Moving a field into an embedded
// block (the trainer's Accounting) must keep every name reading and writing
// as before.
func TestReportFieldsStable(t *testing.T) {
	want := map[string]string{
		"Strategy": "core.Strategy", "Model": "core.ModelKind", "Dataset": "string",
		"Workers": "int", "GlobalBatch": "int", "Curve": "metrics.Curve",
		"WallTime": "time.Duration", "VirtualTime": "time.Duration",
		"CommTime": "time.Duration", "CommHiddenTime": "time.Duration",
		"CommExposedIntra": "time.Duration", "CommExposedInter": "time.Duration",
		"GradBuckets": "int", "GradBucketBytes": "int64", "CommBytesSaved": "int64",
		"SpatialShards": "int", "HaloBytes": "int64", "HaloTime": "time.Duration",
		"HaloHiddenTime": "time.Duration", "EdgeCut": "int", "Repartitions": "int",
		"Recoveries": "int", "RecoveryTime": "time.Duration", "ShardLoads": "[]float64",
		"PerWorkerBytes": "int64", "PeakSystemBytes": "int64", "PeakGPUBytes": "int64",
		"MemorySeries": "[]memsim.Sample", "RetainedDataBytes": "int64",
		"OOM": "bool", "OOMError": "string", "TestMSE": "float64",
		"Forecasts": "[]core.Forecast", "Steps": "int", "GradSyncBytes": "int64",
		"Trace": "*trace.Summary",
	}
	got := make(map[string]string)
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Report{})) {
		if f.Anonymous || !f.IsExported() {
			continue
		}
		got[f.Name] = f.Type.String()
	}
	if !reflect.DeepEqual(got, want) {
		var diff []string
		for name, typ := range want {
			if got[name] != typ {
				diff = append(diff, "want "+name+" "+typ+", got "+got[name])
			}
		}
		for name, typ := range got {
			if _, ok := want[name]; !ok {
				diff = append(diff, "unexpected "+name+" "+typ)
			}
		}
		sort.Strings(diff)
		t.Fatalf("Report fields changed:\n%v", diff)
	}
}
