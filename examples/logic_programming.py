"""Logic programming and path algebra in Hydrogen (section 2).

"Recursion can be expressed by forming cyclic references to named table
expressions.  Hydrogen can be used for logic programming by mapping rules
to table expressions ... one can also express path algebra computations."

This example maps three classic logic programs onto recursive table
expressions:

1. ancestry (transitive closure of parent_of),
2. a bill-of-materials explosion with quantity arithmetic,
3. cheapest-route computation over a flight network (path algebra:
   recursion + aggregation + a user-defined function).

It also shows the magic-sets-style rewrite specializing a restricted
recursive query, and semi-naive vs naive fixpoint iteration counts.

Run:  python examples/logic_programming.py
"""

from repro import Database
from repro.datatypes import DOUBLE


def main():
    db = Database()

    # --- 1. ancestry -----------------------------------------------------------
    db.execute("CREATE TABLE parent_of (parent VARCHAR(10), "
               "child VARCHAR(10))")
    family = [("adam", "beth"), ("adam", "carl"), ("beth", "dora"),
              ("carl", "evan"), ("dora", "fred"), ("gina", "hugo")]
    for parent, child in family:
        db.execute("INSERT INTO parent_of VALUES ('%s', '%s')"
                   % (parent, child))
    db.analyze()

    ancestors = db.execute("""
        WITH RECURSIVE ancestor (a, d) AS (
            SELECT parent, child FROM parent_of
            UNION ALL
            SELECT x.a, p.child FROM ancestor x, parent_of p
            WHERE p.parent = x.d
        )
        SELECT a, d FROM ancestor ORDER BY a, d
    """)
    print("ancestor facts (datalog: ancestor(X,Y) :- parent(X,Y); "
          "ancestor(X,Z) :- ancestor(X,Y), parent(Y,Z)):")
    for row in ancestors.rows:
        print("  ancestor(%s, %s)" % row)

    # The magic-sets-style specialization: restricting the query to one
    # seed pushes the restriction into the base case.
    compiled = db.compile("""
        WITH RECURSIVE ancestor (a, d) AS (
            SELECT parent, child FROM parent_of
            UNION ALL
            SELECT x.a, p.child FROM ancestor x, parent_of p
            WHERE p.parent = x.d
        )
        SELECT d FROM ancestor WHERE a = 'adam'
    """)
    print("\nrestricted query rewrite: %s" % compiled.rewrite_report)
    print("  magic seed restriction fired %d time(s)"
          % compiled.rewrite_report.count("magic_seed_restriction"))
    adams = db.run_compiled(compiled)
    print("  descendants of adam: %s"
          % ", ".join(sorted(r[0] for r in adams.rows)))

    # --- 2. bill of materials ------------------------------------------------------
    db.execute("CREATE TABLE assembly (parent VARCHAR(12), "
               "component VARCHAR(12), qty INTEGER)")
    bom = [("bike", "wheel", 2), ("bike", "frame", 1),
           ("wheel", "spoke", 32), ("wheel", "rim", 1),
           ("frame", "tube", 4), ("rim", "bolt", 8)]
    for parent, component, qty in bom:
        db.execute("INSERT INTO assembly VALUES ('%s', '%s', %d)"
                   % (parent, component, qty))
    db.analyze()

    explosion = db.execute("""
        WITH RECURSIVE parts (component, total) AS (
            SELECT component, qty FROM assembly WHERE parent = 'bike'
            UNION ALL
            SELECT a.component, p.total * a.qty
            FROM parts p, assembly a WHERE a.parent = p.component
        )
        SELECT component, sum(total) FROM parts
        GROUP BY component ORDER BY component
    """)
    print("\nbill-of-materials explosion for 'bike':")
    for component, total in explosion.rows:
        print("  %4d x %s" % (total, component))

    # --- 3. path algebra: cheapest routes ----------------------------------------------
    db.execute("CREATE TABLE flights (frm VARCHAR(4), dst VARCHAR(4), "
               "fare DOUBLE)")
    flights = [("SJC", "LAX", 89.0), ("SJC", "SEA", 120.0),
               ("LAX", "JFK", 310.0), ("SEA", "JFK", 280.0),
               ("LAX", "SEA", 99.0), ("JFK", "BOS", 75.0)]
    for frm, dst, fare in flights:
        db.execute("INSERT INTO flights VALUES ('%s', '%s', %f)"
                   % (frm, dst, fare))
    db.analyze()

    # An externally defined function participates in the recursion
    # ("recursive queries may contain ... even externally defined
    # functions").
    db.register_scalar_function(
        "with_tax", lambda fare: round(fare * 1.075, 2), DOUBLE, arity=1)

    routes = db.execute("""
        WITH RECURSIVE route (dst, cost, hops) AS (
            SELECT dst, with_tax(fare), 1 FROM flights WHERE frm = 'SJC'
            UNION ALL
            SELECT f.dst, r.cost + with_tax(f.fare), r.hops + 1
            FROM route r, flights f
            WHERE f.frm = r.dst AND r.hops < 4
        )
        SELECT dst, min(cost), min(hops) FROM route
        GROUP BY dst ORDER BY dst
    """)
    print("\ncheapest taxed fares from SJC (path algebra):")
    for dst, cost, hops in routes.rows:
        print("  SJC -> %s: $%.2f (best %d hop(s))" % (dst, cost, hops))

    # --- semi-naive vs naive fixpoint --------------------------------------------------
    chain_sql = """
        WITH RECURSIVE n (i) AS (
            SELECT 1 UNION ALL SELECT i + 1 FROM n WHERE i < 60
        ) SELECT count(*) FROM n
    """
    semi = db.execute(chain_sql)
    db.settings.naive_recursion = True
    naive = db.execute(chain_sql)
    db.settings.naive_recursion = False
    print("\nfixpoint on a 60-step chain (same %d rows): semi-naive "
          "scanned %d delta tuples over %d rounds; naive re-scanned %d"
          % (semi.rows[0][0], semi.stats.rows_scanned,
             semi.stats.recursion_iterations, naive.stats.rows_scanned))


if __name__ == "__main__":
    main()
