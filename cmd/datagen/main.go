// Command datagen materializes the synthetic databases and query sets of
// the reproduction as plain-text files for inspection or external use.
//
//	datagen -db 1 -objects 50000 -out ./data
//
// writes objects.csv (id,minx,miny,maxx,maxy), places.csv
// (x,y,population) and one CSV per requested query set.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/cmd/internal/cli"
	"repro/internal/obs"
)

func main() { cli.Main("datagen", declare) }

// declare declares datagen's flags on fs.
func declare(fs *flag.FlagSet) (*obs.ProfileFlags, func() error) {
	var db cli.DB
	var prof obs.ProfileFlags
	db.Register(fs, "database number (1 or 2)", "object count (0 = default scale)")
	out := fs.String("out", "data", "output directory")
	sets := fs.String("sets", "U-P,U-W-33,ID-W,S-P,INT-P,IND-P", "query sets to emit")
	queries := fs.Int("queries", 1000, "queries per emitted set")
	prof.Register(fs)
	return &prof, func() error { return run(&db, *out, *sets, *queries) }
}

func run(sel *cli.DB, out, sets string, queries int) error {
	if err := sel.Parse(); err != nil {
		return err
	}
	db, err := sel.Get()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	if err := cli.WriteFile(filepath.Join(out, "objects.csv"), func(w io.Writer) error {
		fmt.Fprintln(w, "id,minx,miny,maxx,maxy")
		for _, o := range db.Objects {
			fmt.Fprintf(w, "%d,%g,%g,%g,%g\n", o.ID, o.MBR.MinX, o.MBR.MinY, o.MBR.MaxX, o.MBR.MaxY)
		}
		return nil
	}); err != nil {
		return err
	}

	if err := cli.WriteFile(filepath.Join(out, "places.csv"), func(w io.Writer) error {
		fmt.Fprintln(w, "x,y,population")
		for _, p := range db.Places {
			fmt.Fprintf(w, "%g,%g,%d\n", p.Loc.X, p.Loc.Y, p.Population)
		}
		return nil
	}); err != nil {
		return err
	}

	for _, name := range cli.Split(sets) {
		qs, err := db.QuerySet(name, queries, sel.Seed)
		if err != nil {
			return err
		}
		path := filepath.Join(out, "queries-"+name+".csv")
		if err := cli.WriteFile(path, func(w io.Writer) error {
			fmt.Fprintln(w, "id,minx,miny,maxx,maxy")
			for _, q := range qs.Queries {
				fmt.Fprintf(w, "%d,%g,%g,%g,%g\n", q.ID, q.Rect.MinX, q.Rect.MinY, q.Rect.MaxX, q.Rect.MaxY)
			}
			return nil
		}); err != nil {
			return err
		}
	}

	fmt.Printf("%s: wrote %d objects, %d places and query sets [%s] to %s\n",
		db.Name, len(db.Objects), len(db.Places), sets, out)
	fmt.Printf("tree: %d pages (%.2f%% directory), height %d\n",
		db.Stats.TotalPages(), db.Stats.DirFraction()*100, db.Stats.Height)
	return nil
}
