#include "nerf/field.hpp"

#include "nerf/hash_grid.hpp"

namespace asdr::nerf {

void
RadianceField::densityBatch(const Vec3 *pos, int count,
                            DensityOutput *out) const
{
    for (int p = 0; p < count; ++p)
        out[p] = density(pos[p]);
}

void
RadianceField::colorBatch(const Vec3 *pos, const Vec3 &dir,
                          const DensityOutput *den, int count,
                          Vec3 *out) const
{
    for (int p = 0; p < count; ++p)
        out[p] = color(pos[p], dir, den[p]);
}

void
RadianceField::colorBatchDirs(const Vec3 *pos, const Vec3 *dirs,
                              const DensityOutput *den, int count,
                              Vec3 *out) const
{
    for (int p0 = 0; p0 < count;) {
        int p1 = p0 + 1;
        while (p1 < count && sameBits(dirs[p1], dirs[p0]))
            ++p1;
        colorBatch(pos + p0, dirs[p0], den + p0, p1 - p0, out + p0);
        p0 = p1;
    }
}

TableSchema
schemaFromGeometry(const GridGeometry &geom)
{
    TableSchema schema;
    schema.hash_table_entries = geom.tableSize();
    schema.features = geom.config().features_per_level;
    for (int l = 0; l < geom.levels(); ++l) {
        const GridLevelInfo &info = geom.level(l);
        TableInfo table;
        table.entries = info.table_entries;
        table.dense = info.dense;
        table.verts_per_axis = info.resolution + 1;
        table.dims = 3;
        schema.tables.push_back(table);
    }
    return schema;
}

} // namespace asdr::nerf
