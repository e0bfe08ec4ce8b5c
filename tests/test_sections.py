import csv
import io
import math

import numpy as np
import pytest
from conftest import make_shape
from hypothesis import given, strategies as st

from framefx.sections import (
    AREA,
    DEPTH,
    SectionPool,
    SectionShape,
    SectionTableError,
    circular_properties,
    interpolated_properties,
    load_bundled_pool,
    load_section_table,
    pool_index_of_nearest_area,
)

HEADER = "name,area_cm2,ix_cm4,sx_cm3,zx_cm3,rx_cm,ry_cm,depth_cm\n"


def table(rows):
    return io.StringIO(HEADER + "".join(rows))


class TestLoader:
    def test_three_rows_sorted_by_area(self):
        pool = load_section_table(table([
            "B,20,200,40,45,4,3,11\n",
            "A,10,100,20,24,3,2,9\n",
            "C,15,150,30,34,3.5,2.5,10\n",
        ]))
        assert len(pool) == 3
        assert [s.name for s in pool] == ["A", "C", "B"]

    def test_negative_area_names_row(self):
        with pytest.raises(SectionTableError, match="row 3"):
            load_section_table(table([
                "A,10,100,20,24,3,2,9\n",
                "B,-1,100,20,24,3,2,9\n",
            ]))

    @pytest.mark.parametrize("column", range(1, 8))
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
    def test_non_finite_or_non_positive_property_names_row(self, column, value):
        fields = "A,10,100,20,24,3,2,9".split(",")
        fields[column] = value
        with pytest.raises(SectionTableError, match="row 3: A: .* must be finite "
                                                    "and positive"):
            load_section_table(table(["B,20,200,40,45,4,3,11\n",
                                      ",".join(fields) + "\n"]))

    def test_elastic_above_plastic_rejected(self):
        with pytest.raises(SectionTableError, match="exceeds"):
            load_section_table(table(["A,10,100,30,24,3,2,9\n"]))

    def test_empty_table(self):
        with pytest.raises(SectionTableError):
            load_section_table(io.StringIO(HEADER))

    def test_bad_header(self):
        with pytest.raises(SectionTableError, match="header"):
            load_section_table(io.StringIO("a,b\n1,2\n"))

    def test_unparseable_number(self):
        with pytest.raises(SectionTableError, match="row 2"):
            load_section_table(table(["A,x,100,20,24,3,2,9\n"]))

    def test_byte_stream(self):
        data = (HEADER + "A,10,100,20,24,3,2,9\n").encode()
        pool = load_section_table(data)
        assert pool[0].name == "A"

    def test_duplicate_area_tie_broken_by_depth(self):
        pool = load_section_table(table([
            "DEEP,10,100,20,24,3,2,12\n",
            "SHALLOW,10,100,20,24,3,2,9\n",
        ]))
        assert [s.name for s in pool] == ["SHALLOW", "DEEP"]


class TestBundledCatalogs:
    def test_full_w_table_shape_count(self):
        assert len(load_bundled_pool("w-all")) == 267

    def test_w14_table_shape_count(self):
        assert len(load_bundled_pool("w14")) == 37

    def test_full_table_extremes_match_raw_scan(self):
        # oracle: scan the raw CSV independently of the loader's ordering
        from importlib import resources
        ref = resources.files("framefx.data").joinpath("w_shapes.csv")
        with ref.open() as fh:
            rows = list(csv.DictReader(fh))
        areas = [float(r["area_cm2"]) for r in rows]
        pool = load_bundled_pool("w-all")
        assert pool[0].area == min(areas)
        assert pool[len(pool) - 1].area == max(areas)

    @pytest.mark.parametrize("name", ["w-all", "w14"])
    def test_ascending_area_order(self, name):
        pool = load_bundled_pool(name)
        for i in range(len(pool) - 1):
            assert pool[i].area <= pool[i + 1].area

    def test_unknown_pool(self):
        with pytest.raises(KeyError):
            load_bundled_pool("hss")

    @pytest.mark.parametrize("name, filename", [("w-all", "w_shapes.csv"),
                                                ("w14", "w14_shapes.csv")])
    def test_pool_is_names_and_table(self, name, filename):
        from importlib import resources
        with resources.files("framefx.data").joinpath(filename).open() as fh:
            rows = {r[0]: r[1:] for r in list(csv.reader(fh))[1:]}
        pool = load_bundled_pool(name)
        assert not hasattr(pool, "shapes")
        assert sorted(pool.names) == sorted(rows)
        areas = [float(rows[n][0]) for n in pool.names]
        assert areas == sorted(areas)
        for i, shape in enumerate(pool):
            assert shape == pool[i] == SectionShape(pool.names[i],
                                                    *map(float, rows[pool.names[i]]))
            assert all(type(v) is float for v in shape.row)
            assert shape.row == tuple(pool.properties[i])


class TestNearestArea:
    def test_nearest_no_cap(self, small_pool):
        assert pool_index_of_nearest_area(small_pool, 19.0) == 1

    def test_tie_goes_smaller(self, small_pool):
        assert pool_index_of_nearest_area(small_pool, 15.0) == 0

    def test_nonpositive_target(self, small_pool):
        with pytest.raises(ValueError):
            pool_index_of_nearest_area(small_pool, 0.0)
        with pytest.raises(ValueError):
            pool_index_of_nearest_area(small_pool, [19.0, -1.0])

    @given(st.lists(st.floats(min_value=0.5, max_value=50.0), max_size=20))
    def test_array_matches_scalar(self, targets):
        # repeated areas: ties between equal shapes go to the first one
        pool = SectionPool([make_shape(f"S{i}", area=a, depth=1.0 + i)
                            for i, a in enumerate((10.0, 20.0, 20.0, 30.0, 30.0, 40.0))])
        scalars = [pool_index_of_nearest_area(pool, t) for t in targets]
        assert all(type(i) is int for i in scalars)
        assert pool_index_of_nearest_area(pool, np.array(targets)).tolist() == scalars
        assert set(scalars) <= {0, 1, 3, 5}

    @given(st.floats(min_value=0.5, max_value=60.0))
    def test_idempotent_requery(self, target):
        pool = SectionPool([circular_properties(r) for r in (2.0, 3.0, 4.0, 5.0)])
        i = pool_index_of_nearest_area(pool, target)
        assert pool_index_of_nearest_area(pool, pool[i].area) == i


class TestCircular:
    def test_unit_radius(self):
        s = circular_properties(1.0)
        assert s.area == pytest.approx(math.pi, rel=1e-15)
        assert s.moment_of_inertia_x == pytest.approx(math.pi / 4, rel=1e-15)
        assert s.section_modulus_x == pytest.approx(math.pi / 4, rel=1e-15)

    def test_radius_two_closed_forms(self):
        s = circular_properties(2.0)
        assert s.area == pytest.approx(4 * math.pi, rel=1e-15)
        assert s.moment_of_inertia_x == pytest.approx(4 * math.pi, rel=1e-15)
        assert s.section_modulus_x == pytest.approx(2 * math.pi, rel=1e-15)
        assert s.depth == 4.0
        assert s.radius_of_gyration_x == 1.0

    def test_zero_radius_rejected(self):
        with pytest.raises(ValueError):
            circular_properties(0.0)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_section_modulus_is_inertia_over_radius(self, r):
        s = circular_properties(r)
        assert s.section_modulus_x == s.moment_of_inertia_x / r

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_elastic_below_plastic(self, r):
        s = circular_properties(r)
        assert s.section_modulus_x <= s.plastic_modulus_x


class TestInterpolated:
    def test_exact_at_catalog_knot(self, small_pool):
        s = interpolated_properties(small_pool, 20.0)
        assert s[AREA] == 20.0
        assert s[DEPTH] == small_pool[1].depth

    def test_between_knots_is_between_values(self, small_pool):
        s = interpolated_properties(small_pool, 25.0)
        assert small_pool[1].depth < s[DEPTH] < small_pool[2].depth

    def test_clamped_to_catalog_range(self, small_pool):
        assert interpolated_properties(small_pool, 1.0)[AREA] == small_pool.min_area
        assert interpolated_properties(small_pool, 999.0)[AREA] == small_pool.max_area
